package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/boom"
	"repro/internal/workloads"
)

// tcamp builds a tiny-scale Campaign — the shape nearly every core test
// sweeps. Kept here so call sites stay as close to the old
// (names, configs) form as possible.
func tcamp(names []string, cfgs []boom.Config) Campaign {
	return NewCampaign(names, cfgs, workloads.ScaleTiny)
}

// fullBaselines runs every named workload through the full detailed model
// on cfg, spread over GOMAXPROCS goroutines like a sweep.
func fullBaselines(t *testing.T, r *Runner, names []string, cfg boom.Config) map[string]*Result {
	t.Helper()
	fulls := make(map[string]*Result, len(names))
	errs := make([]error, len(names))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			w, err := workloads.Build(name, workloads.ScaleTiny)
			if err == nil {
				var res *Result
				if res, err = r.RunFull(context.Background(), w, cfg); err == nil {
					mu.Lock()
					fulls[name] = res
					mu.Unlock()
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return fulls
}
