package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/compile"
	"repro/internal/fleet"
	"repro/internal/service"
	"repro/internal/wire"
)

// runFleet is the -fleet route: instead of chasing in-process, the
// assembled request envelope is shipped to a fleet of chased workers
// through the coordinator, and the remote result is rendered through
// the same emission path as a local run — stdout is byte-identical by
// construction. A local registry service acts as the coordinator's
// ontology source, so cold workers pull Σ through the handshake and
// nothing has to be provisioned on them ahead of time.
func runFleet(addrs, network string, req service.ChaseRequest, engineLabel string, stats, quiet, stream bool, format string, stdout, stderr io.Writer) int {
	if req.Ontology.Set == nil {
		fmt.Fprintln(stderr, "chase: -fleet needs the ontology's clauses (a fingerprint-only request cannot seed cold workers)")
		return 2
	}
	// The local service is only a registry here — it never chases; it
	// computes the fingerprint and serves the cold-pull source.
	local := service.New(service.Config{Cache: compile.NewCache(0)})
	defer local.Close()
	h, err := local.RegisterOntology(req.Ontology.Set)
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	snapshot := req.Database.Snapshot
	if req.Database.Instance != nil {
		snapshot = wire.EncodeSnapshot(req.Database.Instance)
	}
	coord, err := fleet.NewCoordinator(fleet.Config{
		Workers: strings.Split(addrs, ","),
		Network: network,
		Source:  local,
	})
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	defer coord.Close()

	job := fleet.Job{
		Name:        "chase",
		Meta:        req.Meta,
		Fingerprint: h.Fingerprint,
		Variant:     req.Variant,
		Snapshot:    snapshot,
		Deltas:      req.Database.Deltas,
		Budget:      req.Budget(),
		Workers:     req.Workers,
	}
	if stream {
		job.Progress = cli.ProgressPrinter(stderr, "chase")
	}
	tk, err := coord.Submit(job)
	if err != nil {
		fmt.Fprintln(stderr, "chase:", err)
		return 2
	}
	res := tk.Wait()
	if res.Err != nil {
		fmt.Fprintln(stderr, "chase:", res.Err)
		return 2
	}
	if code := emitChase(stdout, stderr, format, quiet, res.Instance, res.Stats, res.Terminated, res.Source); code != 0 {
		return code
	}
	if stats {
		s := res.Stats
		cli.StatsBlock(stderr, "chase", [][2]string{
			{"engine", engineLabel},
			{"atoms", fmt.Sprint(s.Atoms)},
			{"initial-atoms", fmt.Sprint(s.InitialAtoms)},
			{"rounds", fmt.Sprint(s.Rounds)},
			{"triggers-fired", fmt.Sprint(s.TriggersFired)},
			{"triggers-considered", fmt.Sprint(s.TriggersConsidered)},
			{"nulls", fmt.Sprint(s.Nulls)},
			{"max-depth", fmt.Sprint(s.MaxDepth)},
			{"terminated", fmt.Sprint(res.Terminated)},
			{"cache", cli.CacheState(s)},
			{"arena-blocks", fmt.Sprint(s.ArenaBlocks)},
			{"worker", res.Worker},
			{"cold-pulls", fmt.Sprint(coord.ColdPulls())},
		}, nil)
	}
	if !res.Terminated {
		return 1
	}
	return 0
}
