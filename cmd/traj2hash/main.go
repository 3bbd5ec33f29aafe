// Command traj2hash is the command-line interface of the library:
//
//	traj2hash gen        generate a synthetic trajectory dataset
//	traj2hash train      train a trainable encoder (attention, cnn) on a dataset
//	traj2hash search     top-k similar trajectory search with an encoder
//	traj2hash experiment reproduce one of the paper's tables or figures
//	traj2hash all        reproduce every table and figure
//
// Run any subcommand with -h for its flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/dist"
	"traj2hash/internal/experiments"
	"traj2hash/internal/geo"
	"traj2hash/internal/obs"
	"traj2hash/internal/serve"
)

func main() {
	// Ctrl-C / SIGTERM cancel the command context so long-running
	// subcommands (train, search, experiment, all) wind down cleanly —
	// train flushes a checkpoint, search returns partial results. A second
	// signal unregisters the handler and kills the process the default way,
	// so a wedged run can always be force-quit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "import":
		err = cmdImport(os.Args[2:])
	case "train":
		err = cmdTrain(ctx, os.Args[2:])
	case "search":
		err = cmdSearch(ctx, os.Args[2:])
	case "experiment":
		err = cmdExperiment(ctx, os.Args[2:])
	case "all":
		err = cmdAll(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "traj2hash:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: traj2hash <command> [flags]

commands:
  gen         generate a synthetic trajectory dataset (porto | chengdu)
  import      build a dataset from a CSV of real trajectories
  train       train a trainable encoder (-encoder attention|cnn) on a dataset
  search      top-k similar trajectory search with an encoder
  experiment  reproduce a paper table/figure: table1..3 fig4..9 extra-cdtw encoders
  all         reproduce every table and figure`)
}

func cityByName(name string) (*data.City, error) {
	switch name {
	case "porto":
		return data.Porto(), nil
	case "chengdu":
		return data.ChengDu(), nil
	default:
		return nil, fmt.Errorf("unknown city %q (porto|chengdu)", name)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	city := fs.String("city", "porto", "city model: porto or chengdu")
	scale := fs.String("scale", "small", "dataset scale: tiny|small|medium|paper")
	out := fs.String("out", "dataset.gob", "output path")
	seed := fs.Int64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, err := cityByName(*city)
	if err != nil {
		return err
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	p := experiments.ParamsFor(sc)
	start := time.Now()
	ds := data.Build(c, p.Split, *seed)
	if err := ds.Save(*out); err != nil {
		return err
	}
	fmt.Printf("generated %s dataset: %d seeds, %d validation, %d corpus, %d queries, %d database (%v) -> %s\n",
		ds.Name, len(ds.Seeds), len(ds.Validation), len(ds.Corpus), len(ds.Queries), len(ds.Database),
		time.Since(start).Round(time.Millisecond), *out)
	return nil
}

// cmdImport builds a Dataset from a CSV of real trajectories
// (traj_id,x,y rows in planar meters, or traj_id,lon,lat with -lonlat).
// Trajectories are shuffled and split by the given ratios, then saved in
// the same gob format gen produces, so train/search work unchanged.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	in := fs.String("csv", "", "input CSV path (required)")
	out := fs.String("out", "dataset.gob", "output dataset path")
	name := fs.String("name", "imported", "dataset name")
	lonlat := fs.Bool("lonlat", false, "coordinates are lon,lat degrees (projected to meters)")
	refLat := fs.Float64("reflat", 0, "reference latitude for -lonlat (default: first point's)")
	seedFrac := fs.Float64("seeds", 0.05, "fraction used as exact-distance seeds")
	valFrac := fs.Float64("val", 0.05, "fraction used for validation")
	corpusFrac := fs.Float64("corpus", 0.30, "fraction used as triplet corpus")
	queryFrac := fs.Float64("queries", 0.05, "fraction used as test queries")
	seed := fs.Int64("seed", 1, "shuffle seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("import: -csv is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	var ts []geo.Trajectory
	if *lonlat {
		ref := *refLat
		//lint:ignore floatcompare 0 is the flag's exact "not given" sentinel, never a computed value
		if ref == 0 {
			// No reference latitude given: read the raw degree values and
			// project with the first point's latitude as the reference.
			all, err := data.ReadCSV(f)
			if err != nil {
				return err
			}
			if len(all) == 0 || len(all[0]) == 0 {
				return fmt.Errorf("import: empty CSV")
			}
			ref = all[0][0].Y // the raw Y column holds latitude degrees
			for _, raw := range all {
				t := make(geo.Trajectory, len(raw))
				for i, p := range raw {
					t[i] = geo.ProjectEquirectangular(p.X, p.Y, ref)
				}
				ts = append(ts, t)
			}
		} else {
			ts, err = data.ReadCSVLonLat(f, ref)
			if err != nil {
				return err
			}
		}
	} else {
		ts, err = data.ReadCSV(f)
		if err != nil {
			return err
		}
	}
	ts = data.Filter(ts, data.MinPoints)
	if len(ts) < 20 {
		return fmt.Errorf("import: only %d trajectories with ≥%d points; need at least 20", len(ts), data.MinPoints)
	}
	ds, err := data.SplitByFractions(*name, ts, *seedFrac, *valFrac, *corpusFrac, *queryFrac, *seed)
	if err != nil {
		return err
	}
	if err := ds.Save(*out); err != nil {
		return err
	}
	fmt.Printf("imported %d trajectories: %d seeds, %d validation, %d corpus, %d queries, %d database -> %s\n",
		len(ts), len(ds.Seeds), len(ds.Validation), len(ds.Corpus), len(ds.Queries), len(ds.Database), *out)
	return nil
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	in := fs.String("data", "dataset.gob", "dataset path (from gen)")
	distName := fs.String("dist", "frechet", "distance function: dtw|frechet|hausdorff")
	scale := fs.String("scale", "small", "model scale: tiny|small|medium|paper")
	encoderKind := fs.String("encoder", core.AttentionKind,
		"encoder kind to train: "+strings.Join(core.EncoderKinds(), " | "))
	out := fs.String("out", "model.gob", "output model path")
	ckptEvery := fs.Int("checkpoint-every", 0,
		"write a resumable checkpoint every N epochs (0 = only on interrupt)")
	ckptPath := fs.String("checkpoint", "", "checkpoint path (default <out>.ckpt)")
	resume := fs.String("resume", "", "resume training from this checkpoint file")
	debugAddrFlag := fs.String("debug-addr", "",
		"serve /metrics, /trace and pprof on this address while training (e.g. :6060; binds 127.0.0.1 unless a host is given; default off)")
	stats := fs.Bool("stats", false, "print a metrics summary when training finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckptPath == "" {
		*ckptPath = *out + ".ckpt"
	}
	// The CLI records into the process-global registry — the same one the
	// checkpoint-persistence counters land on, so /metrics and -stats see
	// the whole picture.
	reg := obs.Default()
	if *debugAddrFlag != "" {
		bound, err := serve.StartDebugServer(ctx, *debugAddrFlag, reg)
		if err != nil {
			return err
		}
		fmt.Printf("debug server on http://%s (metrics, trace, pprof)\n", bound)
	}

	ds, err := data.Load(*in)
	if err != nil {
		return err
	}
	f, err := dist.ParseFunc(*distName)
	if err != nil {
		return err
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	kind := *encoderKind
	cfg := experiments.ParamsFor(sc).CoreConfig()
	enc, err := core.NewEncoder(kind, cfg, ds.All())
	if err != nil {
		return err
	}
	m, ok := enc.(core.Trainable)
	if !ok {
		return fmt.Errorf("train: encoder %q is training-free; it needs no train step — use it directly, e.g. 'traj2hash search -encoder %s'", kind, kind)
	}
	wroteCkpt := false
	td := core.TrainData{
		Seeds: ds.Seeds, Validation: ds.Validation, Corpus: ds.Corpus, F: f,
		Metrics:         reg,
		CheckpointEvery: *ckptEvery,
		// The sink serves both cadenced checkpoints and the interrupt
		// flush, so a Ctrl-C always leaves a resumable file behind (as long
		// as at least one epoch completed).
		OnCheckpoint: func(c *core.Checkpoint) error {
			if err := core.SaveCheckpointFile(*ckptPath, c); err != nil {
				return err
			}
			wroteCkpt = true
			return nil
		},
	}
	if *resume != "" {
		c, err := core.LoadCheckpointFile(*resume)
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		td.Resume = c
		fmt.Printf("resuming from %s at epoch %d/%d\n", *resume, c.Epoch, cfg.Epochs)
	}
	start := time.Now()
	h, err := m.TrainCtx(ctx, td)
	if err != nil {
		if ctx.Err() != nil && wroteCkpt {
			return fmt.Errorf("%w (checkpoint saved; rerun with -resume %s)", err, *ckptPath)
		}
		return err
	}
	if err := core.SaveEncoderFile(*out, enc); err != nil {
		return err
	}
	fmt.Printf("trained %s encoder on %s (%s) for %v epochs: best validation HR@10 %.4f at epoch %d, %d triplets (%v) -> %s\n",
		kind, ds.Name, f, cfg.Epochs, h.BestHR10, h.BestEpoch, h.Triplets,
		time.Since(start).Round(time.Millisecond), *out)
	if len(h.Diverged) > 0 {
		fmt.Printf("divergence guard tripped at epoch(s) %v; rolled back and replayed at reduced LR\n", h.Diverged)
	}
	if *stats {
		serve.WriteStats(os.Stdout, reg)
	}
	return nil
}

func cmdSearch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	modelPath := fs.String("model", "model.gob", "trained encoder path (ignored by training-free encoders)")
	in := fs.String("data", "dataset.gob", "dataset path; queries search its database split")
	encoderKind := fs.String("encoder", "",
		"encoder kind: "+strings.Join(core.EncoderKinds(), " | ")+
			"; training-free kinds build from the dataset, trainable kinds load -model and must match (default: whatever -model holds)")
	scale := fs.String("scale", "small", "config scale for training-free encoders built on the fly")
	k := fs.Int("k", 10, "number of results per query")
	numQueries := fs.Int("queries", 5, "number of queries to run")
	workers := fs.Int("workers", 0, "parallel workers for embedding and search (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 1, "database shards (queries fan out across shards in parallel)")
	timeout := fs.Duration("timeout", 0,
		"overall search deadline; on expiry partial results are printed and flagged (0 = none)")
	debugAddrFlag := fs.String("debug-addr", "",
		"serve /metrics, /trace and pprof on this address while searching (e.g. :6060; binds 127.0.0.1 unless a host is given; default off)")
	stats := fs.Bool("stats", false, "print a metrics summary after the queries")
	walDir := fs.String("wal-dir", "",
		"durability directory: mutations are write-ahead logged there and a prior run's state is recovered on startup — the dataset's database split only seeds an index that recovered nothing (default off: in-memory)")
	snapshotEvery := fs.Int("snapshot-every", 0,
		"with -wal-dir, snapshot cadence in logged mutations; smaller bounds recovery replay, larger appends faster (0 = default 1024, negative = log-only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.Default()
	if *debugAddrFlag != "" {
		bound, err := serve.StartDebugServer(ctx, *debugAddrFlag, reg)
		if err != nil {
			return err
		}
		fmt.Printf("debug server on http://%s (metrics, trace, pprof)\n", bound)
	}

	ds, err := data.Load(*in)
	if err != nil {
		return err
	}
	enc, err := experiments.ResolveEncoder(*encoderKind, *modelPath, *scale, ds)
	if err != nil {
		return err
	}
	queries := ds.Queries
	if *numQueries < len(queries) {
		queries = queries[:*numQueries]
	}

	// The CLI serves queries through the same engine as the public API:
	// Hamming-space search behind a sharded, concurrent index.
	buildStart := time.Now()
	idx, err := traj2hash.NewIndexWith(enc, ds.Database, traj2hash.Options{
		Shards:        *shards,
		Workers:       *workers,
		Metrics:       reg,
		WALDir:        *walDir,
		SnapshotEvery: *snapshotEvery,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := idx.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "warning: closing durable index: %v\n", err)
		}
	}()
	if rec := idx.Recovery(); rec.Recovered {
		torn := ""
		if rec.TornTail {
			torn = "; truncated a torn final record (crash mid-append)"
		}
		fmt.Printf("recovered %d trajectories from %s (%d from snapshot, %d replayed from the log%s)\n",
			idx.Len(), *walDir, rec.FromSnapshot, rec.Replayed, torn)
	}
	fmt.Printf("indexed %d trajectories in %v (%s encoder, %d shard(s))\n",
		idx.Len(), time.Since(buildStart).Round(time.Millisecond), enc.Kind(), *shards)

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	results, statuses := idx.SearchBatchCtx(ctx, queries, *k)
	elapsed := time.Since(start)
	degraded := 0
	for qi, res := range results {
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		note := ""
		if !statuses[qi].Complete {
			degraded++
			note = fmt.Sprintf("  [partial: %d/%d shards answered]", statuses[qi].ShardsOK, *shards)
		}
		fmt.Printf("query %d (%d points): top-%d database ids %v%s\n", qi, len(queries[qi]), *k, ids, note)
	}
	if degraded > 0 {
		fmt.Printf("warning: %d/%d queries returned partial results (deadline or shard failure)\n",
			degraded, len(queries))
	}
	fmt.Printf("%d queries (embed+search) in %v (%v/query)\n",
		len(queries), elapsed.Round(time.Microsecond),
		(elapsed / time.Duration(len(queries))).Round(time.Microsecond))
	// One count per per-shard lookup, so the total can exceed the query
	// count when the index is sharded.
	fmt.Printf("hybrid fast-path hits: %d (%d queries x %d shards)\n",
		idx.HybridFastPaths(), len(queries), *shards)
	if *stats {
		serve.WriteStats(os.Stdout, reg)
	}
	return nil
}

func cmdExperiment(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	scale := fs.String("scale", "tiny", "experiment scale: tiny|small|medium|paper")
	verbose := fs.Bool("v", false, "log per-cell progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("experiment: need an id (table1..3, fig4..9, extra-cdtw)")
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	for _, id := range fs.Args() {
		// Cancellation is checked between experiments (coarse-grained: a
		// running experiment finishes its current table before exiting).
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("experiment: interrupted before %s: %w", id, cerr)
		}
		exp, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		var log io.Writer = io.Discard
		if *verbose {
			log = os.Stderr
		}
		start := time.Now()
		tbl, err := exp.Run(sc, log)
		if err != nil {
			return err
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s at scale %s in %v)\n", exp.ID, sc, time.Since(start).Round(time.Millisecond))
		if claims := experiments.PaperClaims[exp.ID]; len(claims) > 0 {
			fmt.Println("paper claims to compare against:")
			for _, c := range claims {
				fmt.Printf("  - %s\n", c)
			}
		}
	}
	return nil
}

func cmdAll(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	scale := fs.String("scale", "tiny", "experiment scale: tiny|small|medium|paper")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := make([]string, 0, len(experiments.All()))
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return cmdExperiment(ctx, append([]string{"-scale", *scale}, ids...))
}
