package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bepi"
	"bepi/internal/cluster"
	"bepi/internal/obs"
	"bepi/internal/qexec"
	"bepi/internal/server"
)

// obsClients is the closed-loop client count for the observability
// overhead experiment.
const obsClients = 8

// obsReplicas is the fleet size; two replicas exercise routing, header-free
// local dispatch and per-replica histogram recording without dominating the
// run with solve time.
const obsReplicas = 2

// obsPasses alternates enabled/disabled runs this many times and keeps each
// mode's best qps, so a one-off scheduler hiccup cannot masquerade as
// observability overhead.
const obsPasses = 3

// obsQPS runs one closed-loop pass against a fresh fleet wired with the
// given per-replica observers and coordinator observer, returning the
// steady-state qps (warmup excluded from timing by running it before the
// clock starts).
func obsQPS(eng *bepi.Engine, mkObs func(i int) *obs.Observer, coordObs *obs.Observer, total int) (float64, error) {
	n := eng.N()
	cores := make([]*server.Core, obsReplicas)
	backends := make([]cluster.Backend, obsReplicas)
	for i := range cores {
		cores[i] = server.NewCore(eng, qexec.Config{Obs: mkObs(i), CacheEntries: clusterCacheEntries})
		backends[i] = cluster.NewLocalBackend(fmt.Sprintf("replica-%d", i), cores[i])
	}
	coord, err := cluster.New(backends, cluster.Config{HealthInterval: -1, Obs: coordObs})
	if err != nil {
		return 0, err
	}
	defer func() {
		coord.Close()
		for _, c := range cores {
			c.Close()
		}
	}()

	ctx := context.Background()
	for i := 0; i < 2*clusterHotSeeds; i++ {
		if _, err := coord.Query(ctx, clusterSeed(i, n), 10, false); err != nil {
			return 0, fmt.Errorf("warmup: %w", err)
		}
	}

	perClient := total / obsClients
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < obsClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				_, _ = coord.Query(ctx, clusterSeed(c*perClient+i, n), 10, false)
			}
		}(c)
	}
	wg.Wait()
	return float64(obsClients*perClient) / time.Since(start).Seconds(), nil
}

// Obs measures what the observability layer costs on the serving hot path:
// the same coordinator-over-replicas workload as the cluster experiment,
// once with everything on at production defaults (histograms, sampled
// tracing, flight recorder, slow-query log disabled as in a default deploy)
// and once with obs.Disabled end to end. The contract the tentpole design
// leans on — lock-free histograms, sampled tracing, an atomic ring for
// events — is that the enabled run stays within ~2% of disabled; the table
// makes the number regenerable so a regression shows up as data, not vibes.
func Obs(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	suite := Suite(cfg.Size)
	d := suite[len(suite)-1]

	pg, err := publicGraph(d.G)
	if err != nil {
		return nil, fmt.Errorf("bench: obs graph: %w", err)
	}
	engOpts := []bepi.Option{bepi.WithTolerance(cfg.Tol)}
	if cfg.Parallelism != 0 {
		engOpts = append(engOpts, bepi.WithParallelism(cfg.Parallelism))
	}
	eng, err := bepi.New(pg, engOpts...)
	if err != nil {
		return nil, fmt.Errorf("bench: obs preprocess %s: %w", d.Name, err)
	}

	total := clusterQueries(cfg.Size)
	modes := []struct {
		name  string
		shard func(i int) *obs.Observer
		coord *obs.Observer
	}{
		{"disabled", func(int) *obs.Observer { return obs.Disabled }, obs.Disabled},
		{"enabled", func(int) *obs.Observer { return obs.New(obs.Options{}) },
			obs.New(obs.Options{TraceSample: qexec.DefaultTraceSample})},
	}
	best := make([]float64, len(modes))
	for pass := 0; pass < obsPasses; pass++ {
		for mi, m := range modes {
			qps, err := obsQPS(eng, m.shard, m.coord, total)
			if err != nil {
				return nil, fmt.Errorf("bench: obs %s pass %d: %w", m.name, pass, err)
			}
			if qps > best[mi] {
				best[mi] = qps
			}
		}
	}

	overhead := 100 * (1 - best[1]/best[0])
	t := &Table{
		Title: "Observability overhead (coordinator over in-process replicas)",
		Note: fmt.Sprintf("dataset %s; %d clients, %d queries/mode, best of %d alternating passes; target ≤2%% overhead",
			d.Name, obsClients, total, obsPasses),
		Header: []string{"observability", "qps", "overhead"},
	}
	t.AddRow("disabled", fmt.Sprintf("%.0f", best[0]), "-")
	t.AddRow("enabled (histograms + sampled traces + flight recorder)",
		fmt.Sprintf("%.0f", best[1]), fmt.Sprintf("%.1f%%", overhead))
	return []*Table{t}, nil
}
