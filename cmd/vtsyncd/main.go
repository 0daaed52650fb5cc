// Command vtsyncd replicates a report store between machines.
//
// Leader mode serves a store's replication feed over HTTP:
//
//	vtsyncd -mode leader -store ./vtdata -addr :8844
//
// Follower mode pulls a leader until the local replica is
// byte-identical, keeping a durable cursor so a restarted follower
// resumes where it stopped:
//
//	vtsyncd -mode follower -store ./replica -leader http://host:8844 -once
//
// Without -once the follower re-syncs every -interval until
// interrupted. The leader can inject transient faults (-fault500,
// -fault503, -seed) to harden follower deployments in testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/store"
	vtsync "vtdynamics/internal/sync"
	"vtdynamics/internal/vtapi"
)

// options are the parsed command-line flags.
type options struct {
	mode     string
	dir      string
	addr     string
	leader   string
	cursor   string
	once     bool
	interval time.Duration
	fault500 float64
	fault503 float64
	seed     int64
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("vtsyncd", flag.ContinueOnError)
	mode := fs.String("mode", "", "leader or follower")
	dir := fs.String("store", "", "store directory (leader: source, follower: replica)")
	addr := fs.String("addr", ":8844", "leader listen address")
	leader := fs.String("leader", "", "leader base URL (follower mode)")
	cursor := fs.String("cursor", "", "follower cursor file (default <store>/sync.cursor)")
	once := fs.Bool("once", false, "follower: one catch-up pass, then exit")
	interval := fs.Duration("interval", 30*time.Second, "follower: delay between catch-up passes")
	fault500 := fs.Float64("fault500", 0, "leader: injected 500 probability")
	fault503 := fs.Float64("fault503", 0, "leader: injected 503 probability")
	seed := fs.Int64("seed", 1, "leader: fault injection seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *dir == "" {
		return nil, errors.New("-store is required")
	}
	switch *mode {
	case "leader":
		if *leader != "" {
			return nil, errors.New("-leader is a follower flag")
		}
	case "follower":
		if *leader == "" {
			return nil, errors.New("follower mode requires -leader URL")
		}
		if *interval <= 0 {
			return nil, fmt.Errorf("bad -interval %v: want > 0", *interval)
		}
	default:
		return nil, fmt.Errorf("unknown -mode %q (leader, follower)", *mode)
	}
	for _, p := range []float64{*fault500, *fault503} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("bad fault probability %v: want [0, 1]", p)
		}
	}
	c := *cursor
	if c == "" {
		c = filepath.Join(*dir, "sync.cursor")
	}
	return &options{
		mode: *mode, dir: *dir, addr: *addr, leader: *leader, cursor: c,
		once: *once, interval: *interval,
		fault500: *fault500, fault503: *fault503, seed: *seed,
	}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, mirroring the
// other commands so flag handling and mode dispatch are testable.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "vtsyncd:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	st, err := store.Open(opts.dir)
	if err != nil {
		fmt.Fprintln(stderr, "vtsyncd:", err)
		return 1
	}

	switch opts.mode {
	case "leader":
		err = runLeader(ctx, opts, st, stdout)
	case "follower":
		err = runFollower(ctx, opts, st, stdout)
	}
	if s := obs.Default().Summary(); s != "" {
		fmt.Fprintln(stderr, "vtsyncd metrics:", s)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(stderr, "vtsyncd:", err)
		return 1
	}
	return 0
}

// runLeader serves until the context is cancelled. It listens before
// announcing, so "serving" on stdout means the port is live —
// scripts wait on that line.
//
// The directory may be one a killed collector left behind: Open then
// replayed its checkpoint journal, and the rows no block had sealed are
// back in memory — counted by the stats and samples a Leader serves,
// but in no block its manifest lists. This daemon never ingests, so
// nothing would ever seal them; Flush does (and persists any sidecar
// Open had to rebuild), which makes what followers receive one state.
func runLeader(ctx context.Context, opts *options, st *store.Store, stdout io.Writer) error {
	if err := st.Flush(); err != nil {
		return err
	}
	var h http.Handler = vtsync.NewLeader(st, nil)
	if opts.fault500 > 0 || opts.fault503 > 0 {
		h = vtapi.FaultMiddleware(vtapi.FaultConfig{
			Error500Rate: opts.fault500,
			Error503Rate: opts.fault503,
			Seed:         opts.seed,
		}, nil, h)
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "vtsyncd: leader serving %s on %s\n", opts.dir, ln.Addr())
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	case err := <-done:
		return err
	}
}

// runFollower catches up once or on an interval. Every pass ends in a
// verified, byte-identical replica of the leader's state at that
// moment; the durable cursor makes restarts resume, not rewind.
func runFollower(ctx context.Context, opts *options, st *store.Store, stdout io.Writer) error {
	f := vtsync.NewFollower(st, opts.leader, nil)
	f.CursorPath = opts.cursor
	for {
		stats, err := f.CatchUp(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "vtsyncd: caught up in %d rounds: %d blocks, %d bytes, %d retries\n",
			stats.Rounds, stats.BlocksApplied, stats.BytesApplied, stats.Retries)
		if opts.once {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(opts.interval):
		}
	}
}
