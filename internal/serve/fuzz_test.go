package serve

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// fuzzModel is a tiny Llama-family config: big enough for multi-head
// attention and every hybrid tier, small enough that one fuzz input serves
// and re-generates a handful of sessions in milliseconds.
func fuzzModel() model.Config {
	return model.Config{
		Name: "fuzz-llama", Family: model.FamilyLlama,
		Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Blocks: 2, MaxSeq: 64,
		Activation: tensor.ActSiLU, LogitScale: 4,
	}
}

// fuzzPolicy puts the hybrid's ABFT+FT2 tiers on the value and MLP paths
// and leaves K/Q unprotected, the shape of the chaos-bench adaptive policy.
func fuzzPolicy() *protect.Policy {
	return &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.KProj:    protect.TierNone,
		model.QProj:    protect.TierNone,
		model.VProj:    protect.TierABFTFT2,
		model.OutProj:  protect.TierABFTFT2,
		model.GateProj: protect.TierABFTFT2,
		model.UpProj:   protect.TierABFTFT2,
		model.DownProj: protect.TierDMR,
	}}
}

// Cancellation modes of a fuzzed request.
const (
	cancelNone         = iota // run to completion
	cancelAfterFirst          // client goes away after the first streamed token
	cancelBeforeSubmit        // client goes away before submitting (context already done)
	cancelDeadline            // a 1 ms deadline, expiring in the queue or mid-stream
)

type fuzzRequest struct {
	prompt    []int
	maxTokens int
	protected bool
	victim    bool // opts in to chaos (Request.Chaos)
	cancel    int
	arrival   time.Duration // pause before submitting
}

type fuzzSchedule struct {
	cfg       Config
	crossover bool // install a cost model whose fusion crossover is 4 rows
	reqs      []fuzzRequest
}

// byteReader yields the script's bytes, then zeros.
type byteReader []byte

func (b *byteReader) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeSchedule turns an arbitrary byte script into a server config and a
// request stream. Every field is reduced modulo its range, so every script
// is a valid schedule. The chaos opt-ins (flags bit 4 runs the chaos engine,
// request mode bit 3 marks a victim) read bits the committed seed corpus
// leaves zero, so those seeds decode to the schedules they were recorded
// for (TestFuzzCorpusDecodesWithoutChaos).
func decodeSchedule(script []byte) fuzzSchedule {
	r := byteReader(script)
	cfg := Config{
		ModelCfg:     fuzzModel(),
		Seed:         3,
		Replicas:     1,
		MaxSessions:  8,
		PrefillChunk: []int{0, 3, 8}[r.next()%3],
		BatchMax:     []int{1, 3, 8}[r.next()%3],
		SliceSteps:   1 + r.next()%4,
	}
	flags := r.next()
	if flags&1 != 0 {
		cfg.PrefixCacheMB = 1
	}
	if flags&2 != 0 {
		cfg.ProtectPolicy = fuzzPolicy()
	}
	if flags&8 != 0 {
		cfg.Replicas = 2
	}
	if flags&16 != 0 {
		// More than one fault arrival per slice, bursts, and a third each of
		// weight and KV-cache targets: the chaos selftest's storm.
		cfg.Chaos = &chaos.Config{Seed: 11, Rate: 1.5, Burst: 2, Mix: fault.TargetMix{Weight: 0.3, KV: 0.3}}
	}
	sch := fuzzSchedule{cfg: cfg, crossover: flags&4 != 0}

	shared := make([]int, 16)
	for i := range shared {
		shared[i] = 4 + (i*7)%60
	}
	n := 1 + r.next()%6
	for i := 0; i < n; i++ {
		shape, tokens, mode, arrival := r.next(), r.next(), r.next(), r.next()
		length := 1 + shape%8
		if shape&1 != 0 {
			length = 20 + shape%20 // longer than every PrefillChunk
		}
		prompt := make([]int, length)
		for j := range prompt {
			prompt[j] = 4 + (j*13+shape*5+i)%60
		}
		if shape&2 != 0 && length > len(shared) {
			copy(prompt, shared) // a shared prefix the cache can serve
		}
		sch.reqs = append(sch.reqs, fuzzRequest{
			prompt:    prompt,
			maxTokens: 1 + tokens%10,
			protected: mode&1 != 0,
			victim:    mode&8 != 0,
			cancel:    (mode >> 1) % 4,
			arrival:   time.Duration(arrival%4) * 200 * time.Microsecond,
		})
	}
	return sch
}

// FuzzScheduleOracle is the scheduler's differential test. A fuzzed
// schedule varies arrivals, prompt lengths (including prompts longer than
// PrefillChunk), PrefillChunk, BatchMax (1, below the fusion crossover, and
// above it), SliceSteps, the mix of protected (FT2 or hybrid) and bare
// requests, mid-stream cancellations and deadlines, the prefix cache, and
// chaos victims. Every session that completes must equal Oracle in tokens
// and corrections; every session that does not must fail with a 499 or
// 504, having streamed a prefix of the oracle's tokens. Chaos victims are
// exempt from the oracle comparison while the chaos engine runs, but not
// from settling cleanly. The committed corpus under testdata/fuzz runs as
// part of go test.
func FuzzScheduleOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) { checkSchedule(t, script) })
}

// checkSchedule serves the schedule script decodes, checks every session
// against the oracle, and returns how many faults the chaos engine
// injected (0 without chaos).
func checkSchedule(t *testing.T, script []byte) int64 {
	t.Helper()
	sch := decodeSchedule(script)
	if sch.crossover {
		cm := tensor.DefaultCostModel()
		for k := range cm.SerialNsPerMadd {
			cm.SerialNsPerMadd[k][1] = 2 * cm.SerialNsPerMadd[k][0] // m=2..3 slower fused
		}
		prev := tensor.CurrentCostModel()
		tensor.SetCostModel(cm)
		defer tensor.SetCostModel(&prev)
		if cm.FuseWorthwhile(3) || !cm.FuseWorthwhile(4) {
			t.Fatal("crossover cost model does not put the crossover at 4 rows")
		}
	}
	srv, err := New(sch.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	type outcome struct {
		streamed []int
		res      Result
		err      error
	}
	outs := make([]chan outcome, len(sch.reqs))
	for i, rq := range sch.reqs {
		time.Sleep(rq.arrival)
		ctx, cancel := context.WithCancel(context.Background())
		req := Request{PromptTokens: rq.prompt, MaxTokens: rq.maxTokens, Protected: rq.protected, Chaos: rq.victim}
		switch rq.cancel {
		case cancelBeforeSubmit:
			cancel()
		case cancelDeadline:
			req.DeadlineMS = 1
		}
		outs[i] = make(chan outcome, 1)
		sess, err := srv.Submit(ctx, req)
		if err != nil {
			cancel()
			outs[i] <- outcome{err: err}
			continue
		}
		go func(rq fuzzRequest, out chan<- outcome) {
			defer cancel()
			var o outcome
			for tok := range sess.Tokens() {
				o.streamed = append(o.streamed, tok)
				if rq.cancel == cancelAfterFirst && len(o.streamed) == 1 {
					cancel()
				}
			}
			wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer wcancel()
			o.res, o.err = sess.Wait(wctx)
			out <- o
		}(rq, outs[i])
	}

	for i, rq := range sch.reqs {
		o := <-outs[i]
		want, corr, err := Oracle(srv.Config(), rq.prompt, rq.maxTokens, rq.protected)
		if err != nil {
			t.Fatal(err)
		}
		// A victim may diverge while chaos runs; without chaos its
		// opt-in is a no-op and the oracle holds.
		exempt := rq.victim && sch.cfg.Chaos != nil
		if o.err != nil {
			if rq.cancel == cancelNone {
				t.Fatalf("request %d failed without a cancellation: %v", i, o.err)
			}
			if st := errStatus(o.err); st != statusClientClosed && st != 504 {
				t.Fatalf("request %d (cancel mode %d) settled with status %d: %v", i, rq.cancel, st, o.err)
			}
			if !exempt && (len(o.streamed) > len(want) || !equalTokens(o.streamed, want[:len(o.streamed)])) {
				t.Fatalf("request %d streamed %v before cancelling, not a prefix of oracle %v", i, o.streamed, want)
			}
			continue
		}
		// Completed — including a cancellation that landed after the
		// final token.
		if rq.cancel == cancelBeforeSubmit {
			t.Fatalf("request %d completed although its context was done before submit", i)
		}
		if exempt {
			continue
		}
		if !equalTokens(o.res.Tokens, want) {
			t.Fatalf("request %d: served %v != oracle %v", i, o.res.Tokens, want)
		}
		if rq.protected && !reflect.DeepEqual(o.res.Corrections, corr) {
			t.Fatalf("request %d: corrections %+v != oracle %+v", i, o.res.Corrections, corr)
		}
	}
	if srv.Chaos() == nil {
		return 0
	}
	return srv.Chaos().Counters().Injected()
}

// TestFuzzCorpusDecodesWithoutChaos pins that the chaos opt-ins were added
// without re-meaning the committed seeds: none of them sets the chaos or
// victim bits, so each still decodes to the schedule it was recorded for.
func TestFuzzCorpusDecodesWithoutChaos(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzScheduleOracle/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus found (%v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		script, err := strconv.Unquote(lit)
		if len(lines) != 2 || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus entry (%v)", f, err)
		}
		sch := decodeSchedule([]byte(script))
		if sch.cfg.Chaos != nil {
			t.Errorf("%s: seed enables the chaos engine", filepath.Base(f))
		}
		for i, rq := range sch.reqs {
			if rq.victim {
				t.Errorf("%s: request %d is a chaos victim", filepath.Base(f), i)
			}
		}
	}
}

// TestScheduleOracleUnderChaos runs hand-written schedules with the chaos
// opt-ins set: protected and bare victims beside controls, on one replica
// and on two, including all-victim groups (which admit weight faults and
// the scrub/rebuild they force) and a victim cancelled mid-stream. Every
// control must still equal the oracle and every victim must settle
// cleanly. Victims decode for several slices, so the engine must inject.
func TestScheduleOracleUnderChaos(t *testing.T) {
	for name, script := range map[string][]byte{
		// PrefillChunk 0, BatchMax 8, SliceSteps 2, chaos + hybrid policy;
		// 4 requests (shape, tokens, mode, arrival): protected victim,
		// protected control, bare victim with a long shared prompt, bare
		// control.
		"mixed-hybrid": {0, 2, 1, 0x12, 3,
			2, 9, 0x9, 0, 4, 9, 0x1, 0, 3, 7, 0x8, 1, 6, 9, 0x0, 0},
		// PrefillChunk 3, BatchMax 3, SliceSteps 1, chaos + two replicas +
		// prefix cache; 3 protected victims (one cancelled after its first
		// token) and one protected control.
		"victims-two-replicas": {1, 1, 0, 0x19, 3,
			5, 9, 0x9, 0, 2, 9, 0x9, 0, 7, 9, 0xb, 0, 4, 9, 0x1, 2},
	} {
		t.Run(name, func(t *testing.T) {
			if injected := checkSchedule(t, script); injected == 0 {
				t.Error("chaos engine never injected — the control assertions are vacuous")
			}
		})
	}
}
