package model

import (
	"testing"

	"ft2/internal/numerics"
)

// chunkedPrefill drives BeginPrefill/PrefillChunk over the prompt in chunks
// of the given size and returns the first token.
func chunkedPrefill(m *Model, prompt []int, chunk int) int {
	m.BeginPrefill(len(prompt))
	for pos := 0; pos < len(prompt); {
		n := chunk
		if rem := len(prompt) - pos; n > rem {
			n = rem
		}
		tok, done := m.PrefillChunk(prompt[pos : pos+n])
		pos += n
		if done {
			if pos != len(prompt) {
				panic("done before the final chunk")
			}
			return tok
		}
	}
	panic("prefill never completed")
}

// TestPrefillChunkBitIdentical: a chunked prefill must leave state — first
// token, KV bits, and the whole greedy continuation — identical to the
// reference's single-pass prefill, for every family and chunk size
// including 1.
func TestPrefillChunkBitIdentical(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			m := MustNew(cfg, 11, numerics.FP16)
			ref := NewReference(m)
			prompt := []int{5, 9, 21, 33, 2, 40, 7}
			const n = 8
			want, _ := ref.Generate(prompt, n)
			wantPrefill := ref.Begin(len(prompt))
			ref.Chunk(wantPrefill, prompt)

			for _, chunk := range []int{1, 2, 3, 5, len(prompt)} {
				got := make([]int, 0, n)
				tok := chunkedPrefill(m, prompt, chunk)
				if err := wantPrefill.Match(m.State()); err != nil {
					t.Fatalf("chunk=%d: prefill state differs from the reference: %v", chunk, err)
				}
				got = append(got, tok)
				for s := 1; s < n; s++ {
					tok = m.DecodeStep(tok)
					got = append(got, tok)
				}
				if !equalInts(want, got) {
					t.Errorf("chunk=%d: got %v, want %v", chunk, got, want)
				}
			}
		})
	}
}

// TestResumePrefillPrefixBitIdentical: seeding a prefill from a cached
// prefix view and computing only the suffix must reproduce the reference's
// cold generation bit-for-bit at every prefix depth, including depth 0.
func TestResumePrefillPrefixBitIdentical(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			donor := MustNew(cfg, 7, numerics.FP16)
			prompt := []int{3, 14, 15, 9, 2, 6, 26, 5}
			const n = 8
			ref := NewReference(donor)
			want, _ := ref.Generate(prompt, n)
			wantPrefill := ref.Begin(len(prompt))
			ref.Chunk(wantPrefill, prompt)

			// Cache entry: the full-prompt KV captured right after prefill.
			donor.Prefill(prompt)
			var cached Snapshot
			donor.Checkpoint(&cached)

			m := MustNew(cfg, 7, numerics.FP16)
			for _, rows := range []int{0, 1, len(prompt) / 2, len(prompt) - 1} {
				m.BeginPrefill(len(prompt))
				m.ResumePrefillPrefix(cached.Prefix(rows))
				if m.st.PrefillPos() != rows {
					t.Fatalf("rows=%d: PrefillPos() = %d", rows, m.st.PrefillPos())
				}
				tok, done := m.PrefillChunk(prompt[rows:])
				if !done {
					t.Fatalf("rows=%d: suffix chunk did not complete", rows)
				}
				if err := wantPrefill.Match(m.State()); err != nil {
					t.Fatalf("rows=%d: prefix-seeded state differs from the reference: %v", rows, err)
				}
				got := append(make([]int, 0, n), tok)
				for s := 1; s < n; s++ {
					tok = m.DecodeStep(tok)
					got = append(got, tok)
				}
				if !equalInts(want, got) {
					t.Errorf("rows=%d: got %v, want %v", rows, got, want)
				}
			}
		})
	}
}

// TestSnapshotPrefixBounds: Prefix must reject out-of-range truncations and
// allow the full [0, Rows()] range.
func TestSnapshotPrefixBounds(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3, 4})
	var snap Snapshot
	m.Checkpoint(&snap)

	if v := snap.Prefix(0); v.Rows() != 0 {
		t.Fatalf("Prefix(0).Rows() = %d", v.Rows())
	}
	if v := snap.Prefix(snap.Rows()); v.Rows() != snap.Rows() {
		t.Fatalf("Prefix(Rows()).Rows() = %d", v.Rows())
	}
	for _, bad := range []int{-1, snap.Rows() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prefix(%d) did not panic", bad)
				}
			}()
			snap.Prefix(bad)
		}()
	}
}

// TestRestoreRejectsPrefixView: a prefix view has no resume point, so a full
// Restore of one must panic instead of resuming a bogus generation.
func TestRestoreRejectsPrefixView(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3, 4})
	var snap Snapshot
	m.Checkpoint(&snap)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore of a prefix view did not panic")
		}
	}()
	m.Restore(snap.Prefix(2))
}

// TestResumePrefillPrefixRejectsMismatch: architecture mismatches — here a
// model with a smaller MaxSeq than the snapshot's — must panic loudly.
func TestResumePrefillPrefixRejectsMismatch(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	donor := MustNew(cfg, 3, numerics.FP16)
	donor.Prefill([]int{1, 2, 3, 4})
	var snap Snapshot
	donor.Checkpoint(&snap)

	small := cfg
	small.MaxSeq = cfg.MaxSeq / 2
	m := MustNew(small, 3, numerics.FP16)
	m.BeginPrefill(8)
	defer func() {
		if recover() == nil {
			t.Fatal("ResumePrefillPrefix into a smaller-MaxSeq model did not panic")
		}
	}()
	m.ResumePrefillPrefix(snap.Prefix(2))
}

// TestResumePrefillPrefixRejectsShortPrompt: a prompt no longer than the
// cached prefix leaves no suffix row for the readout, so seeding must panic
// (the serving cache caps lookups at len(prompt)-1 to avoid this).
func TestResumePrefillPrefixRejectsShortPrompt(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3, 4, 5, 6})
	var snap Snapshot
	m.Checkpoint(&snap)

	for _, promptLen := range []int{3, 6} { // strictly shorter, and exactly equal
		m.BeginPrefill(promptLen)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("promptLen=%d: prefix of %d rows accepted", promptLen, snap.Rows())
				}
			}()
			m.ResumePrefillPrefix(snap.Prefix(snap.Rows()))
		}()
	}
}

// TestMidPrefillGuards: a state mid-way through a chunked prefill must be
// unusable for decode, checkpointing, and re-seeding, and the chunk cursor
// must reject overruns and empty chunks.
func TestMidPrefillGuards(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4, 5, 6}
	m.BeginPrefill(len(prompt))
	if _, done := m.PrefillChunk(prompt[:2]); done {
		t.Fatal("partial chunk reported done")
	}
	if m.Started() {
		t.Fatal("Started() true mid-prefill")
	}
	if !m.st.Prefilling() {
		t.Fatal("Prefilling() false mid-prefill")
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s mid-prefill did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DecodeStep", func() { m.DecodeStep(1) })
	mustPanic("Checkpoint", func() { m.Checkpoint(&Snapshot{}) })
	mustPanic("ResumePrefillPrefix", func() { m.ResumePrefillPrefix(&Snapshot{}) })
	mustPanic("overrun chunk", func() { m.PrefillChunk(prompt[1:]) })
	mustPanic("empty chunk", func() { m.PrefillChunk(nil) })

	// Finish cleanly: the state must come out identical to a cold prefill.
	tok, done := m.PrefillChunk(prompt[2:])
	if !done {
		t.Fatal("final chunk did not complete")
	}
	if want := m.Prefill(prompt); want != tok {
		t.Fatalf("recovered chunked prefill token %d, cold %d", tok, want)
	}

	mustPanic("PrefillChunk after completion", func() { m.PrefillChunk(prompt[:1]) })
}

// TestChunkedPrefillAllocFree: the chunked path must stay off the allocator
// after warm-up just like the single-pass one — it runs inside serve slices.
func TestChunkedPrefillAllocFree(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	chunkedPrefill(m, prompt, 3) // warm up scratch, rope table, KV slabs

	avg := testing.AllocsPerRun(10, func() {
		tok := chunkedPrefill(m, prompt, 3)
		for s := 1; s < 6; s++ {
			tok = m.DecodeStep(tok)
		}
	})
	if avg != 0 {
		t.Fatalf("chunked prefill allocates %.1f objects/run after warm-up, want 0", avg)
	}
}
