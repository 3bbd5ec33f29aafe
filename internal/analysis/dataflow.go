package analysis

// A generic forward worklist solver over the CFGs of cfg.go.
// Rules define a Dataflow problem — bottom element, boundary fact, join,
// equality, and a block transfer function — and read the per-block fixed
// point. Facts are user-defined; the solver imposes only that Join is
// monotone and Equal detects stabilization (the usual termination
// contract of Kildall's algorithm).

// Dataflow is one dataflow problem over a CFG.
type Dataflow[F any] struct {
	// Bottom returns the least element: the initial fact of every block
	// (and the input of unreachable blocks).
	Bottom func() F
	// Boundary returns the fact entering the graph: the Entry block's
	// input.
	Boundary func() F
	// Join merges a predecessor fact into an accumulator, returning the
	// merged fact. It may mutate and return acc; src must not be mutated.
	Join func(acc, src F) F
	// Equal reports whether two facts are equal (stabilization test).
	Equal func(a, b F) bool
	// Transfer computes the block's output fact from its input fact. It
	// must not retain or mutate in; copy first when mutation is needed.
	Transfer func(b *CFGBlock, in F) F
}

// DataflowResult carries the per-block fixed point: the fact entering
// and leaving each block (indexed by CFGBlock.Index).
type DataflowResult[F any] struct {
	In  []F
	Out []F
}

// SolveDataflow iterates the problem to its fixed point with a worklist
// seeded in graph order (which approximates reverse postorder for the
// builder's creation order, keeping iteration counts low).
func SolveDataflow[F any](g *CFG, p Dataflow[F]) DataflowResult[F] {
	n := len(g.Blocks)
	res := DataflowResult[F]{In: make([]F, n), Out: make([]F, n)}
	for i := 0; i < n; i++ {
		res.In[i] = p.Bottom()
		res.Out[i] = p.Transfer(g.Blocks[i], res.In[i])
	}
	entry := g.Entry
	res.In[entry.Index] = p.Boundary()
	res.Out[entry.Index] = p.Transfer(entry, res.In[entry.Index])

	inWork := make([]bool, n)
	var work []*CFGBlock
	push := func(b *CFGBlock) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false

		// Gather the inputs from the predecessors.
		in := p.Bottom()
		if b == entry {
			in = p.Join(in, p.Boundary())
		}
		for _, pr := range b.Preds {
			in = p.Join(in, res.Out[pr.Index])
		}
		out := p.Transfer(b, in)
		res.In[b.Index] = in
		if p.Equal(out, res.Out[b.Index]) {
			continue
		}
		res.Out[b.Index] = out
		for _, s := range b.Succs {
			push(s)
		}
	}
	return res
}
