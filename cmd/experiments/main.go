// Command experiments regenerates the paper's quantitative results as
// tables. Each experiment corresponds to a theorem, proposition or lemma
// of "Non-Uniformly Terminating Chase: Size and Complexity" (PODS 2022);
// -list prints the index, and README.md ("Paper results") describes it.
//
// Usage:
//
//	experiments [-exp ID | -exp all] [-quick] [-workers N] [-format table|csv]
//	            [-qos anytime:<deadline>] [-list] [-stream]
//	            [-metrics FILE] [-trace FILE]
//	experiments -request req.json [-workers N] [-format table|csv]
//
// Every experiment runs as a typed ExperimentRequest through the service
// layer (internal/service) — one job per experiment, awaited in order,
// so tables render exactly as the direct runner produced them; -request
// replays a JSON request file naming one experiment. The -workers flag
// sizes the streaming job scheduler that scheduler-backed experiments
// (currently XP-RESTRICTED, the heaviest random-trial sweep) use to run
// independent points concurrently; timing-sensitive experiments stay
// sequential on purpose. Scheduler jobs share the process-wide
// compilation cache (internal/compile). With -stream, per-trial
// completion events are printed to stderr as jobs finish. Tables are
// identical for any worker count, cache state, and stream setting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/qos"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, executes, writes the
// tables to stdout and diagnostics to stderr, and returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment id (e.g. XP-LB-SL) or 'all'")
		quick   = fs.Bool("quick", false, "run reduced parameter sweeps")
		format  = fs.String("format", "table", "output format: table or csv")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		request = cli.RequestFlag(fs)
		workers = cli.WorkersFlag(fs)
		stream  = cli.StreamFlag(fs)
		qosStr  = cli.QoSFlag(fs)
	)
	metricsPath, tracePath := cli.TelemetryFlags(fs)
	cpuprofile, memprofile := cli.ProfileFlags(fs)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help is a successful invocation, not CLI misuse
		}
		return 2
	}
	policy, err := qos.Parse(*qosStr)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	stopProfiles, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
		}
	}()

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	// Assemble the experiment envelopes: one request per selected
	// experiment (or the request file's single experiment).
	var reqs []service.ExperimentRequest
	if *request != "" {
		f, err := service.LoadRequestFile(*request)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 2
		}
		req, err := f.ExperimentRequest()
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 2
		}
		reqs = append(reqs, req)
	} else if *exp == "all" {
		for _, e := range experiments.All() {
			reqs = append(reqs, service.ExperimentRequest{ID: e.ID, Quick: *quick})
		}
	} else {
		reqs = append(reqs, service.ExperimentRequest{ID: *exp, Quick: *quick})
	}

	// One service, one job per experiment, awaited in submission order:
	// experiments stay sequential (several are timing-sensitive), but
	// every run goes through the public submission path.
	tel := cli.NewTelemetry(false, *metricsPath, *tracePath)
	svc := service.New(service.Config{Workers: 1, QueueBound: 1, Telemetry: tel})
	defer svc.Close()
	for i := range reqs {
		reqs[i].Workers = cli.Workers(*workers)
		// A request file's own "qos" field wins over the flag; only an
		// anytime deadline is meaningful for a sweep (it becomes the wall
		// budget), and the service rejects anything else.
		if reqs[i].Meta.QoS.IsZero() {
			reqs[i].Meta.QoS = policy
		}
		if *quick {
			// Like -workers and -stream, the flag applies in request
			// mode too (it can only tighten a sweep, never extend one).
			reqs[i].Quick = true
		}
		if *stream {
			reqs[i].Stream = stderr
		}
		ticket, err := svc.SubmitExperiment(context.Background(), reqs[i])
		if err != nil {
			// Unknown experiment ids fail here, synchronously.
			fmt.Fprintln(stderr, err)
			return 2
		}
		r := ticket.Wait()
		if r.Err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", reqs[i].ID, r.Err)
			return 1
		}
		e, _ := experiments.Get(reqs[i].ID) // cannot fail: SubmitExperiment validated the id
		table := r.Table
		table.ID = e.ID
		table.Title = e.Title
		table.Claim = e.Claim
		var werr error
		if *format == "csv" {
			werr = table.CSV(stdout)
		} else {
			werr = table.Render(stdout)
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
	}
	if err := cli.WriteTelemetry(tel, *metricsPath, *tracePath); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	return 0
}
