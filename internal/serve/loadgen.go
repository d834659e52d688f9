package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ft2/internal/data"
	"ft2/internal/model"
)

// LoadSpec describes a closed-loop load run against a Server: Clients
// concurrent clients issue Requests total generations, each client
// submitting its next request as soon as the previous one settles. The
// self-test and the serve benchmark both run through here so they measure
// the same path the HTTP handler uses.
type LoadSpec struct {
	Clients   int
	Requests  int
	MaxTokens int
	Protected bool
	// PromptFor returns the prompt token ids for request i (required).
	PromptFor func(i int) []int
	// ChaosFor, when non-nil, marks request i as a chaos victim
	// (Request.Chaos); requests it declines stay control traffic the chaos
	// engine must never touch.
	ChaosFor func(i int) bool
}

// LoadStats is the outcome of a RunLoad: per-request results (indexed by
// request number) plus aggregate throughput.
type LoadStats struct {
	Requests     int
	Failed       int
	WallSec      float64
	TokensPerSec float64
	Results      []Result // by request index; zero value where Errs[i] != nil
	Errs         []error  // by request index; nil on success
}

// RunLoad drives the server with spec. Clients that hit 429 backpressure
// retry after a short pause — a closed-loop client backs off, it does not
// drop work — so every request eventually settles unless ctx expires.
func (s *Server) RunLoad(ctx context.Context, spec LoadSpec) LoadStats {
	st := LoadStats{
		Requests: spec.Requests,
		Results:  make([]Result, spec.Requests),
		Errs:     make([]error, spec.Requests),
	}
	var next atomic.Int64
	var tokens atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= spec.Requests {
					return
				}
				req := Request{
					PromptTokens: spec.PromptFor(i),
					MaxTokens:    spec.MaxTokens,
					Protected:    spec.Protected,
					Chaos:        spec.ChaosFor != nil && spec.ChaosFor(i),
				}
				var sess *Session
				var err error
				for {
					sess, err = s.Submit(ctx, req)
					if !errors.Is(err, ErrQueueFull) {
						break
					}
					select {
					case <-ctx.Done():
						err = ctx.Err()
					case <-time.After(2 * time.Millisecond):
						continue
					}
					break
				}
				if err != nil {
					st.Errs[i] = err
					continue
				}
				res, err := sess.Wait(ctx)
				if err != nil {
					st.Errs[i] = err
					continue
				}
				st.Results[i] = res
				tokens.Add(int64(len(res.Tokens)))
			}
		}()
	}
	wg.Wait()
	st.WallSec = time.Since(start).Seconds()
	if st.WallSec > 0 {
		st.TokensPerSec = float64(tokens.Load()) / st.WallSec
	}
	for _, err := range st.Errs {
		if err != nil {
			st.Failed++
		}
	}
	return st
}

// SharedPrefixLoad builds a LoadSpec over the shared-prefix chat scenario:
// requests distinct prompts of promptLen tokens sharing a sharedFrac-common
// system prompt (data.SharedPrefixPrompts), issued by clients concurrent
// clients. Reusing the same (seed, promptLen, sharedFrac, requests) across
// two runs replays the identical prompt set — the warm-vs-cold comparison
// the prefix-cache bench and selftest are built on.
func SharedPrefixLoad(clients, requests, maxTokens, promptLen int, sharedFrac float64, seed int64, protected bool) LoadSpec {
	prompts := data.SharedPrefixPrompts(requests, promptLen, sharedFrac, seed)
	return LoadSpec{
		Clients: clients, Requests: requests, MaxTokens: maxTokens,
		Protected: protected,
		PromptFor: func(i int) []int { return prompts[i%len(prompts)] },
	}
}

// Oracle computes the reference output for one request on a fresh,
// dedicated model driven by GenerateInto end to end — the ground truth a
// served response must match bit-for-bit regardless of how the scheduler
// sliced and migrated the session. cfg must be the server's effective
// config (Server.Config()).
func Oracle(cfg Config, prompt []int, maxTokens int, protected bool) ([]int, Corrections, error) {
	m, err := model.New(cfg.ModelCfg, cfg.Seed, cfg.DType)
	if err != nil {
		return nil, Corrections{}, err
	}
	if cfg.WeightsF16 {
		m.EnableF16Weights()
	}
	if !protected {
		return m.Generate(prompt, maxTokens), Corrections{}, nil
	}
	// The oracle must run the exact protection the server applies.
	f := newController(m, cfg.FT2Opts, cfg.ProtectPolicy, nil)
	out := f.Generate(prompt, maxTokens)
	corr := correctionsReport(f.Stats(), f.FirstTokenNaNCount(), f.StatsByKind())
	return out, corr, nil
}
