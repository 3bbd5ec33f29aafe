// Command traj2hashd is the long-running serving daemon: it loads a
// dataset, builds (or recovers) a trajectory index, and serves it over
// HTTP until SIGTERM/SIGINT, then drains gracefully — the listener
// stops accepting, in-flight requests finish, and the WAL is fsynced
// and closed. Endpoints:
//
//	POST /search   {"traj": [[x,y],...], "k": 10, "timeout_ms": 500}
//	POST /add      {"traj": [[x,y],...]}
//	POST /delete   {"id": 3}
//	POST /update   {"id": 3, "traj": [[x,y],...]}
//	GET  /stats    index shape, drain state, latency quantiles, metrics
//	GET  /healthz  200 serving | 503 draining
//
// Searches that arrive while a flush is in flight are coalesced by a
// flush-when-idle batcher into one engine invocation (an idle daemon
// dispatches a search at once), and admission control sheds with 503
// beyond -max-inflight. Drive it with cmd/trajload.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"traj2hash"
	"traj2hash/internal/core"
	"traj2hash/internal/data"
	"traj2hash/internal/experiments"
	"traj2hash/internal/obs"
	"traj2hash/internal/serve"
)

func main() {
	// First signal starts the graceful drain; a second unregisters the
	// handler and kills the process the default way, so a wedged drain
	// can always be force-quit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traj2hashd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("traj2hashd", flag.ExitOnError)
	addr := fs.String("addr", ":8080",
		"listen address (binds 127.0.0.1 unless a host is given)")
	addrFile := fs.String("addr-file", "",
		"write the bound address to this file once listening (for scripts using -addr :0)")
	in := fs.String("data", "dataset.gob", "dataset path; its database split seeds a fresh index")
	encoderKind := fs.String("encoder", "",
		"encoder kind: "+strings.Join(core.EncoderKinds(), " | ")+
			"; training-free kinds build from the dataset, trainable kinds load -model (default: whatever -model holds)")
	modelPath := fs.String("model", "model.gob", "trained encoder path (ignored by training-free encoders)")
	scale := fs.String("scale", "small", "config scale for training-free encoders built on the fly")
	shards := fs.Int("shards", 1, "database shards (queries fan out across shards in parallel)")
	workers := fs.Int("workers", 0, "parallel workers for embedding and search (0 = GOMAXPROCS)")
	walDir := fs.String("wal-dir", "",
		"durability directory: mutations are write-ahead logged there and a prior run's state is recovered on startup (default off: in-memory)")
	snapshotEvery := fs.Int("snapshot-every", 0,
		"with -wal-dir, snapshot cadence in logged mutations (0 = default, negative = log-only)")
	syncEvery := fs.Int("sync-every", 0,
		"with -wal-dir, fsync cadence in appends; 1 = every append (0 = default)")
	timeout := fs.Duration("timeout", 2*time.Second,
		"default per-request deadline when the client sends no timeout_ms (0 = none)")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond,
		"maximum time an open batch is held while a flush is in flight; an idle server dispatches immediately (negative = no coalescing)")
	maxInFlight := fs.Int("max-inflight", 256,
		"admitted-request bound; beyond it requests are shed with 503")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long drain waits for in-flight requests after SIGTERM")
	k := fs.Int("k", 10, "default result count when a search omits k")
	debug := fs.Bool("debug", true, "mount /metrics, /trace and pprof on the serving mux")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := data.Load(*in)
	if err != nil {
		return err
	}
	enc, err := experiments.ResolveEncoder(*encoderKind, *modelPath, *scale, ds)
	if err != nil {
		return err
	}
	reg := obs.Default()

	buildStart := time.Now()
	idx, err := traj2hash.NewIndexWith(enc, ds.Database, traj2hash.Options{
		Shards:        *shards,
		Workers:       *workers,
		Metrics:       reg,
		WALDir:        *walDir,
		SnapshotEvery: *snapshotEvery,
		WALSyncEvery:  *syncEvery,
	})
	if err != nil {
		return err
	}
	if rec := idx.Recovery(); rec.Recovered {
		torn := ""
		if rec.TornTail {
			torn = "; truncated a torn final record (crash mid-append)"
		}
		fmt.Printf("recovered %d trajectories from %s (%d from snapshot, %d replayed from the log%s)\n",
			idx.Len(), *walDir, rec.FromSnapshot, rec.Replayed, torn)
	}
	fmt.Printf("serving %d trajectories (%s encoder, %d shard(s)) built in %v\n",
		idx.Len(), enc.Kind(), *shards, time.Since(buildStart).Round(time.Millisecond))

	srv, err := serve.New(serve.Config{
		Index:          idx,
		Metrics:        reg,
		DefaultTimeout: *timeout,
		DefaultK:       *k,
		BatchWindow:    *batchWindow,
		MaxInFlight:    *maxInFlight,
		DrainTimeout:   *drainTimeout,
		Debug:          *debug,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", serve.ListenAddr(*addr))
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	fmt.Printf("listening on http://%s (SIGTERM drains: in-flight requests finish, the WAL is fsynced)\n", bound)
	// Run blocks until ctx cancels, then drains and closes the index.
	if err := srv.Run(ctx, ln); err != nil {
		return err
	}
	fmt.Println("drained cleanly: all in-flight requests completed, index closed")
	return nil
}
