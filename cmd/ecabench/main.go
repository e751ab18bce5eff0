// Command ecabench regenerates the paper's figures:
//
//	ecabench -fig 8               # replay one figure's artifact / message flow
//	ecabench -figs                # replay all figures (1–11)
//
// Performance is measured by the benchmark/ module (see BENCHMARK.json and
// benchmark/README.md), not by this command.
//
// The exit status is non-zero when any figure replay fails its assertions
// (e.g. the Fig. 11 join does not leave exactly one surviving tuple); all
// figures are still attempted so one failure does not hide another.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/obs"
)

// logger reports replay failures as structured records on stderr; wired
// from -log-level/-log-format in main before any replay runs.
var logger *obs.Logger

func main() {
	var (
		fig       = flag.Int("fig", 0, "reproduce one figure (1–11)")
		figs      = flag.Bool("figs", false, "reproduce all figures")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "structured log encoding: text or json")
	)
	flag.Parse()
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecabench: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger = obs.NewLogger(os.Stderr, *logFormat, level)

	failed := 0
	switch {
	case *fig != 0:
		failed += report(fmt.Sprintf("figure %d", *fig), bench.RunFigure(*fig, os.Stdout))
	case *figs:
		bench.RunFigures(os.Stdout, func(n int, err error) {
			failed += report(fmt.Sprintf("figure %d", n), err)
		})
	default:
		flag.Usage()
		fmt.Fprintf(os.Stderr, "\nfigures: %v\n", bench.Figures())
		os.Exit(2)
	}
	if failed > 0 {
		logger.Error("replays failed", "count", failed)
		os.Exit(1)
	}
}

// report logs a failed replay and returns 1 for it, 0 otherwise.
func report(what string, err error) int {
	if err != nil {
		logger.Error("replay failed", "replay", what, "error", err.Error())
		return 1
	}
	return 0
}
