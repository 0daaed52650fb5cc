// Command vtstore inspects and verifies a collected report store.
//
// Usage:
//
//	vtstore -store ./vtdata stats      per-month and per-type accounting
//	vtstore -store ./vtdata verify     re-read and validate every row
//	vtstore -store ./vtdata list       list stored sample hashes
//	vtstore -store ./vtdata reindex    rebuild every block-index sidecar
//	vtstore -store ./vtdata migrate    rewrite v1 partitions to block format v2
//	vtstore -store ./vtdata repair     truncate torn tails so the store opens again
//
// stats and verify fan partition blocks across -workers goroutines
// (default: all cores). Opening a store already rebuilds, in memory,
// the index of any month whose sidecar is missing, stale, torn, or
// pre-zone, so every subcommand sees fully indexed, zone-mapped months.
// stats and verify only read: they write nothing, rebuilt sidecars
// included, while migrate and reindex write those back. reindex is the
// unconditional repair: it re-derives every
// sidecar from the partition bytes — the fix for a sidecar that loads
// but that verify disproves. migrate upgrades the v1 partitions older
// builds wrote to the columnar v2 block format, feeding their rows
// through the writer ingest uses and verifying and fsyncing the
// rewrite before it replaces anything; months already in v2 are
// skipped, so re-running it is a no-op.
//
// A directory a killed collector left behind holds a checkpoint
// journal (checkpoint.log); opening it replays the journal, and verify
// prints the store_journal_* counters: how many still-unsealed rows
// that re-fed and whether a torn final record was dropped. repair is
// for the directory that does not open at all — a partition with a torn
// tail, a journal damaged anywhere but in its final record: it runs
// store.RepairDir, which cuts both back to their last whole unit, and
// then opens the result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/store"
)

// options are the parsed command-line flags and subcommand.
type options struct {
	dir     string
	workers int
	cmd     string
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("vtstore", flag.ContinueOnError)
	dir := fs.String("store", "./vtdata", "store directory")
	workers := fs.Int("workers", 0, "parallel partition readers for stats/verify (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		cmd = "stats"
	}
	switch cmd {
	case "stats", "verify", "list", "reindex", "migrate", "repair":
	default:
		return nil, fmt.Errorf("unknown subcommand %q (stats, verify, list, reindex, migrate, repair)", cmd)
	}
	if fs.NArg() > 1 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(1))
	}
	if *workers < 0 {
		return nil, fmt.Errorf("bad -workers %d: want >= 0", *workers)
	}
	return &options{dir: *dir, workers: *workers, cmd: cmd}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code instead of
// os.Exit, so the verify exit-status contract (non-zero on any row or
// sidecar disagreement) is testable. Sync parity checks shell out to
// `vtstore verify` and rely on that status.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "vtstore:", err)
		return 1
	}

	if opts.cmd == "repair" {
		rs, err := store.RepairDir(opts.dir)
		if err != nil {
			fmt.Fprintln(stderr, "vtstore:", err)
			return 1
		}
		fmt.Fprintf(stdout, "repair: %d sidecars rebuilt, %d partition bytes and %d journal bytes truncated\n",
			len(rs.Repaired), rs.TruncatedBytes, rs.JournalTruncatedBytes)
	}

	// A registry of its own: the journal counters printed below describe
	// this directory alone.
	reg := obs.NewRegistry()
	st, err := store.Open(opts.dir, store.WithMetrics(reg))
	if err != nil {
		fmt.Fprintln(stderr, "vtstore:", err)
		return 1
	}

	switch opts.cmd {
	case "stats":
		fmt.Fprintf(stdout, "samples: %d\n", st.NumSamples())
		fmt.Fprintf(stdout, "%-10s %10s %14s %14s %8s\n", "month", "reports", "stored", "raw", "ratio")
		total := st.TotalStats()
		for _, month := range st.Months() {
			ps := st.Stats(month)
			fmt.Fprintf(stdout, "%-10s %10d %14d %14d %8.2f\n",
				month, ps.Reports, ps.StoredBytes, ps.RawBytes, ps.CompressionRatio())
		}
		fmt.Fprintf(stdout, "%-10s %10d %14d %14d %8.2f\n",
			"total", total.Reports, total.StoredBytes, total.RawBytes, total.CompressionRatio())

		byType, err := st.StatsByTypeWorkers(opts.workers)
		if err != nil {
			fmt.Fprintln(stderr, "vtstore:", err)
			return 1
		}
		types := make([]string, 0, len(byType))
		for ft := range byType {
			types = append(types, ft)
		}
		sort.Slice(types, func(i, j int) bool {
			return byType[types[i]].Samples > byType[types[j]].Samples
		})
		fmt.Fprintf(stdout, "\n%-22s %10s %10s\n", "file type", "samples", "reports")
		for _, ft := range types {
			ts := byType[ft]
			fmt.Fprintf(stdout, "%-22s %10d %10d\n", ft, ts.Samples, ts.Reports)
		}

	case "verify":
		n, err := st.VerifyWorkers(opts.workers)
		if err != nil {
			fmt.Fprintf(stderr, "vtstore: verification FAILED after %d rows: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stdout, "verified %d rows across %d partitions: OK\n", n, len(st.Months()))
		// What Open's journal replay did (records_total counts appends).
		replayed := reg.SumCounters("store_journal_replayed_rows_total")
		torn := reg.SumCounters("store_journal_torn_tail_total")
		if replayed+torn > 0 {
			fmt.Fprintf(stdout, "journal: store_journal_records_total=%d store_journal_replayed_rows_total=%d store_journal_torn_tail_total=%d\n",
				reg.SumCounters("store_journal_records_total"), replayed, torn)
		}

	case "list":
		for _, sha := range st.SampleHashes() {
			meta, _ := st.Meta(sha)
			fmt.Fprintf(stdout, "%s  %-20s %d submissions\n", sha, meta.FileType, meta.TimesSubmitted)
		}

	case "reindex":
		if err := st.Reindex(); err != nil {
			fmt.Fprintln(stderr, "vtstore:", err)
			return 1
		}
		fmt.Fprintf(stdout, "reindex: %d partitions rebuilt\n", len(st.Months()))

	case "migrate":
		ms, err := st.Migrate()
		if err != nil {
			fmt.Fprintln(stderr, "vtstore:", err)
			return 1
		}
		for _, month := range ms.Migrated {
			fmt.Fprintf(stdout, "migrated %s to v2\n", month)
		}
		fmt.Fprintf(stdout, "migrate: %d partitions rewritten to v2, %d already current\n",
			len(ms.Migrated), len(ms.Skipped))
	}
	if s := reg.Summary(); s != "" {
		fmt.Fprintln(stderr, "vtstore metrics:", s)
	}
	return 0
}
