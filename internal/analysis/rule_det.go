package analysis

// The three determinism-contract rules. All share one per-package taint
// analysis (det.go, memoized in detMemos); each rule's Run filters the
// shared finding list by its own name:
//
//	detmaprange   — map-iteration-ordered data reaching a serialization
//	                sink or a //det:replayed return, plus gob-encoding a
//	                type that (transitively) contains a map
//	detwallclock  — wall-clock / global-rand / ambient-process reads
//	                reaching a sink or executed inside a replayed body
//	detunordered  — goroutine-completion-ordered data (multi-sender
//	                channels, multi-case selects, captured-variable
//	                writes from `go` literals) reaching a sink
//
// The //det:replayed directive itself is validated by
// replayedDirective.collect (funcdirective.go) under the "directive"
// pseudo-rule, alongside //perf:hotpath and //lint:ignore.

var ruleDetMapRange = &Rule{
	Name: "detmaprange",
	Doc:  "map-iteration order must not reach serialized or replayed state (sort first)",
	Fix:  "sort the value into a canonical order before the sink (autofix for []string/[]int/[]float64 identifiers)",
	Run:  func(p *Pass) { reportDet(p, "detmaprange") },
}

var ruleDetWallclock = &Rule{
	Name: "detwallclock",
	Doc:  "wall-clock, global-rand, and ambient process state must not reach serialized or replayed state",
	Run:  func(p *Pass) { reportDet(p, "detwallclock") },
}

var ruleDetUnordered = &Rule{
	Name: "detunordered",
	Doc:  "goroutine-completion order must not reach serialized or replayed state (collect by slot or sort)",
	Run:  func(p *Pass) { reportDet(p, "detunordered") },
}

func reportDet(p *Pass, rule string) {
	for _, f := range detFindings(p.Pkg) {
		if f.rule == rule {
			p.ReportFix(f.pos, f.fix, "%s", f.msg)
		}
	}
}
