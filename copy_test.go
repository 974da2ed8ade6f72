package knw

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/binenc"
)

// mustBytes marshals a wire-kind sketch.
func mustBytes(t testing.TB, est Estimator) []byte {
	t.Helper()
	b, err := est.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// codecClone is the copy Clone made before native copies: the
// sketch's envelope, reopened. Encoding finishes a deamortized phase
// in the source, as it always has.
func codecClone(t testing.TB, est Estimator) Estimator {
	t.Helper()
	c, err := Open(mustBytes(t, est))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// distinct returns n distinct keys starting at lo.
func distinct(lo, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(lo+i)*0x9e3779b97f4a7c15 + 7
	}
	return keys
}

// inPhaseF0 returns an F0 at ε = 0.2 (K = 2048, so a copy phase spans
// three updates) fed one key at a time until some copy is mid phase.
func inPhaseF0(t testing.TB, opts ...Option) *F0 {
	t.Helper()
	f := NewF0(append([]Option{WithEpsilon(0.2), WithSeed(41)}, opts...)...)
	for i, k := range distinct(0, 1<<17) {
		f.Add(k)
		for _, s := range f.fast {
			if s.InPhase() {
				return f
			}
		}
		if i == 1<<17-1 {
			t.Fatal("no copy entered a copy phase")
		}
	}
	return f
}

// failedCopyF0 is an F0 whose first copy has failed: a marshaled
// sketch with the copy's FAIL flag set in its section, reopened.
func failedCopyF0(t testing.TB) *F0 {
	t.Helper()
	f := NewF0(WithEpsilon(0.2), WithSeed(43))
	f.AddBatch(distinct(0, 5000))
	es, err := SplitEnvelope(mustBytes(t, f))
	if err != nil {
		t.Fatal(err)
	}
	r := binenc.Reader{Buf: es.Sections[0]}
	k := r.Uvarint()
	cs := r.Uints(int(k))
	b, est := r.Varint(), r.Varint()
	r.Bool()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	var w binenc.Writer
	w.Uvarint(k)
	w.Uints(cs)
	w.Varint(b)
	w.Varint(est)
	w.Bool(true)
	es.Sections[0] = append(w.Buf, r.Buf...)
	g, err := Open(es.AppendEnvelope(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !g.(*F0).fast[0].Failed() {
		t.Fatal("edited copy did not fail")
	}
	return g.(*F0)
}

// nonWireSketch is a kind without an envelope or a native copy.
func nonWireSketch(t *testing.T) Estimator {
	t.Helper()
	est, err := New(KindHyperLogLog, WithEpsilon(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// copyRegimes builds one sketch per state regime a native copy must
// reproduce.
func copyRegimes(t *testing.T) map[string]func() Estimator {
	return map[string]func() Estimator{
		"F0 exact small regime": func() Estimator {
			f := NewF0(WithEpsilon(0.2), WithSeed(31))
			f.AddBatch(distinct(0, 60))
			return f
		},
		"F0 bit-array regime": func() Estimator {
			f := NewF0(WithEpsilon(0.2), WithSeed(32))
			f.AddBatch(distinct(0, 120))
			return f
		},
		"F0 large": func() Estimator {
			f := NewF0(WithEpsilon(0.2), WithSeed(33))
			f.AddBatch(batchKeys(60000))
			return f
		},
		"F0 mid copy phase": func() Estimator { return inPhaseF0(t) },
		"F0 failed copy":    func() Estimator { return failedCopyF0(t) },
		"F0 reference": func() Estimator {
			f := NewF0(WithEpsilon(0.2), WithSeed(34), WithReference())
			f.AddBatch(batchKeys(20000))
			return f
		},
		"F0 strict, ln table": func() Estimator {
			f := NewF0(WithEpsilon(0.2), WithSeed(35), WithStrictRescale(), WithLnTable())
			f.AddBatch(batchKeys(20000))
			return f
		},
		"L0 with deletions":     func() Estimator { return l0WithDeletions(36) },
		"L0 reference, deleted": func() Estimator { l := l0WithDeletions(37, WithReference()); return l },
	}
}

func l0WithDeletions(seed int64, opts ...Option) *L0 {
	l := NewL0(append([]Option{WithEpsilon(0.3), WithSeed(seed), WithUniverseBits(20), WithCopies(3)}, opts...)...)
	keys := distinct(0, 3000)
	l.AddBatch(keys)
	for _, k := range keys[:1000] {
		l.Update(k, -1)
	}
	for _, k := range keys[2000:2100] {
		l.Update(k, 5)
	}
	return l
}

// TestCloneMatchesCodecCopy: in every regime the native copy marshals
// byte-identically to its source and estimates like the codec copy,
// the source is only read (a phase in flight stays in flight), and
// mutating the copy leaves the source's bytes unchanged.
func TestCloneMatchesCodecCopy(t *testing.T) {
	for name, build := range copyRegimes(t) {
		t.Run(name, func(t *testing.T) {
			src := build()
			var phased []bool
			if f, ok := src.(*F0); ok {
				for _, s := range f.fast {
					phased = append(phased, s.InPhase())
				}
			}
			c, err := Clone(src)
			if err != nil {
				t.Fatal(err)
			}
			if f, ok := src.(*F0); ok {
				for i, s := range f.fast {
					if s.InPhase() != phased[i] {
						t.Fatalf("copy %d: Clone changed the source's phase", i)
					}
				}
			}
			got := mustBytes(t, c)
			want := mustBytes(t, build()) // the source, untouched by any encode
			if !bytes.Equal(got, want) {
				t.Fatal("copy marshals differently from its source")
			}
			ce, _ := estimateOf(c)
			oe, _ := estimateOf(codecClone(t, build()))
			if ce != oe && !(math.IsNaN(ce) && math.IsNaN(oe)) {
				t.Fatalf("copy estimates %v, codec copy %v", ce, oe)
			}

			c.AddBatch(distinct(1<<20, 5000))
			if bytes.Equal(mustBytes(t, c), want) {
				t.Fatal("ingest into the copy changed nothing")
			}
			if !bytes.Equal(mustBytes(t, src), want) {
				t.Fatal("ingest into the copy changed the source")
			}

			// Copying over a scratch that holds other state (a set-algebra
			// stack slot) reproduces the source too.
			scratch, err := Clone(c)
			if err != nil {
				t.Fatal(err)
			}
			copyInto(scratch, build())
			if !bytes.Equal(mustBytes(t, scratch), want) {
				t.Fatal("copy into a used scratch marshals differently from the source")
			}
		})
	}
	if _, err := Clone(nonWireSketch(t)); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Clone of a baseline: %v, want ErrIncompatible", err)
	}
}

// refIncExc is inclusion–exclusion as it ran before the depth-first
// walk: for every subset, a codec clone of its first member with the
// rest merged in, in index order.
func refIncExc(t *testing.T, sketches []Estimator) incExc {
	k := len(sketches)
	r := incExc{cards: make([]float64, k)}
	for i, s := range sketches {
		r.cards[i], _ = estimateOf(s)
	}
	full := 1<<k - 1
	for mask := 1; mask <= full; mask++ {
		var u float64
		if bits.OnesCount(uint(mask)) == 1 {
			u = r.cards[bits.TrailingZeros(uint(mask))]
		} else {
			first := bits.TrailingZeros(uint(mask))
			dst := codecClone(t, sketches[first])
			for j := first + 1; j < k; j++ {
				if mask&(1<<j) != 0 {
					if err := MergeInto(dst, sketches[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
			u, _ = estimateOf(dst)
		}
		if bits.OnesCount(uint(mask))%2 == 1 {
			r.inter += u
		} else {
			r.inter -= u
		}
		r.sumU += u
		r.terms++
		if mask == full {
			r.union = u
		}
	}
	minCard := r.cards[0]
	for _, c := range r.cards[1:] {
		minCard = math.Min(minCard, c)
	}
	r.inter = math.Max(0, math.Min(r.inter, minCard))
	return r
}

// TestSetStatsDepthFirstMatchesClonePerSubset: the depth-first walk
// answers bit-identically to cloning per subset, for k = 2..8, with
// overlapping streams, one argument mid copy phase, and L0 arguments.
func TestSetStatsDepthFirstMatchesClonePerSubset(t *testing.T) {
	f0s := func(k int) []Estimator {
		out := make([]Estimator, k)
		for i := range out {
			if i == 1 {
				f := inPhaseF0(t, WithSeed(50))
				f.AddBatch(distinct(i*700, 1500)) // fixed keys after the phase search
				out[i] = f
				continue
			}
			f := NewF0(WithEpsilon(0.2), WithSeed(50))
			f.AddBatch(distinct(i*700, 1500+i*3000))
			out[i] = f
		}
		return out
	}
	l0s := func(k int) []Estimator {
		out := make([]Estimator, k)
		for i := range out {
			l := NewL0(WithEpsilon(0.3), WithSeed(51), WithUniverseBits(16), WithCopies(3))
			l.AddBatch(distinct(i*400, 1000+i*500))
			out[i] = l
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		build func(int) []Estimator
		maxK  int
	}{{"F0", f0s, MaxSetQuery}, {"L0", l0s, 4}} {
		for k := 2; k <= tc.maxK; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				got, err := incExcRun(tc.build(k))
				if err != nil {
					t.Fatal(err)
				}
				if want := refIncExc(t, tc.build(k)); !reflect.DeepEqual(got, want) {
					t.Fatalf("depth-first %+v\nclone per subset %+v", got, want)
				}
				st, err := NewSetStats(tc.build(k)...)
				if err != nil {
					t.Fatal(err)
				}
				if st.Intersection != got.inter || st.Union != got.union || st.Terms != 1<<k-1 {
					t.Fatalf("SetStats %+v disagrees with its pass %+v", st, got)
				}
			})
		}
	}
}

// changedDelta returns base's envelope and a KNWD delta that replaces
// the sections at idx with next's.
func changedDelta(t *testing.T, base, next Estimator, idx []int, compress bool) ([]byte, []byte) {
	t.Helper()
	baseEnv := mustBytes(t, base)
	es, err := SplitEnvelope(mustBytes(t, next))
	if err != nil {
		t.Fatal(err)
	}
	delta, err := AppendDelta(nil, es, 1, 2, idx, compress)
	if err != nil {
		t.Fatal(err)
	}
	return baseEnv, delta
}

// applyBoth applies delta to baseEnv by splice + Open and to its
// decoded sketch with ApplyTo, returning both results' bytes.
func applyBoth(t *testing.T, baseEnv, delta []byte) (spliced, native []byte, nerr error) {
	t.Helper()
	full, err := ApplyDelta(baseEnv, delta)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Open(baseEnv)
	if err != nil {
		t.Fatal(err)
	}
	est, err := d.ApplyTo(base)
	if err != nil {
		return mustBytes(t, opened), nil, err
	}
	if !bytes.Equal(mustBytes(t, base), baseEnv) {
		t.Fatal("ApplyTo changed its base")
	}
	return mustBytes(t, opened), mustBytes(t, est), nil
}

// TestDeltaApplyToMatchesSplice: applying a delta to a decoded sketch
// equals splicing it into the envelope and reopening, for F0 (fast
// and reference) and L0, plain and DEFLATE bodies, any subset of
// changed sections.
func TestDeltaApplyToMatchesSplice(t *testing.T) {
	pairs := map[string]func() (Estimator, Estimator){
		"F0": func() (Estimator, Estimator) {
			a := NewF0(WithEpsilon(0.2), WithSeed(60))
			a.AddBatch(batchKeys(30000))
			b := codecClone(t, a)
			b.AddBatch(distinct(1<<22, 20000))
			return a, b
		},
		"F0 reference": func() (Estimator, Estimator) {
			a := NewF0(WithEpsilon(0.2), WithSeed(61), WithReference())
			a.AddBatch(batchKeys(10000))
			b := codecClone(t, a)
			b.AddBatch(distinct(1<<22, 5000))
			return a, b
		},
		"L0": func() (Estimator, Estimator) {
			a := l0WithDeletions(62)
			b := codecClone(t, a)
			b.AddBatch(distinct(1<<22, 700))
			return a, b
		},
	}
	for name, pair := range pairs {
		for _, compress := range []bool{false, true} {
			for _, idx := range [][]int{nil, {0}, {1, 2}, {0, 1, 2}} {
				t.Run(fmt.Sprintf("%s/z=%v/%v", name, compress, idx), func(t *testing.T) {
					base, next := pair()
					baseEnv, delta := changedDelta(t, base, next, idx, compress)
					want, got, err := applyBoth(t, baseEnv, delta)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatal("ApplyTo result marshals differently from splice + Open")
					}
					nextEnv := mustBytes(t, next)
					if es, _ := SplitEnvelope(nextEnv); len(idx) == len(es.Sections) && !bytes.Equal(got, nextEnv) {
						t.Fatal("replacing every section did not reproduce the next sketch")
					}
				})
			}
		}
	}
}

// rewriteDeltaTotal re-encodes a KNWD delta with a different section
// count, keeping its header checksum and body.
func rewriteDeltaTotal(t *testing.T, delta []byte, total uint64) []byte {
	t.Helper()
	r := binenc.Reader{Buf: delta}
	var f [8]uint64
	for i := range f {
		f[i] = r.Uvarint()
	}
	body := r.BytesView()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	f[5] = total
	var w binenc.Writer
	for _, v := range f {
		w.Uvarint(v)
	}
	w.Bytes(body)
	return w.Buf
}

// TestDeltaApplyToRejects: the kind, the section count and the header
// checksum are checked against the decoded base, and a corrupt changed
// section is rejected with the errors Open gives it — every case
// TestOpenRejectsOutOfRangeCopyState covers, never a panic.
func TestDeltaApplyToRejects(t *testing.T) {
	kinds := wireKindsUnderTest(t)
	f0, l0 := kinds[KindF0], kinds[KindL0]
	es, err := SplitEnvelope(mustBytes(t, f0))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := AppendDelta(nil, es, 1, 2, []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(b []byte) Delta {
		d, err := DecodeDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if _, err := decode(raw).ApplyTo(l0); err == nil {
		t.Error("F0 delta applied to an L0 base")
	}
	other := NewF0(WithEpsilon(0.1), WithSeed(7))
	if _, err := decode(raw).ApplyTo(other); err == nil {
		t.Error("delta applied across differing settings")
	}
	if _, err := decode(rewriteDeltaTotal(t, raw, uint64(len(es.Sections)+1))).ApplyTo(f0); err == nil {
		t.Error("delta applied across a section-count mismatch")
	}
	if _, err := decode(raw).ApplyTo(nonWireSketch(t)); err == nil {
		t.Error("delta applied to a baseline")
	}

	f := NewF0(WithSeed(2004), WithEpsilon(0.3), WithCopies(1), WithK(32), WithUniverseBits(16))
	f.AddBatch(batchKeys(5000))
	env := mustBytes(t, f)
	base, err := Open(env)
	if err != nil {
		t.Fatal(err)
	}
	logN := uint64(f.UniverseBits())
	for name, edited := range map[string][]byte{
		"counter 2^61":    editFirstCopy(env, func(cs []uint64, _, _ *int64) { cs[0] = 1 << 61 }),
		"counter LogN+2":  editFirstCopy(env, func(cs []uint64, _, _ *int64) { cs[0] = logN + 2 }),
		"offset 2^61":     editFirstCopy(env, func(_ []uint64, b, _ *int64) { *b = 1 << 61 }),
		"offset past est": editFirstCopy(env, func(_ []uint64, b, est *int64) { *b = *est + 1 }),
		"level 64":        editFirstCopy(env, func(_ []uint64, _, est *int64) { *est = 64 }),
		"truncated":       editFirstCopy(env, func(cs []uint64, _, _ *int64) {}),
	} {
		es, err := SplitEnvelope(edited)
		if err != nil {
			t.Fatal(err)
		}
		if name == "truncated" {
			es.Sections[0] = es.Sections[0][:len(es.Sections[0])/2]
		}
		delta, err := AppendDelta(nil, es, 1, 2, []int{0}, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decode(delta).ApplyTo(base); !errors.Is(err, binenc.ErrCorrupt) {
			t.Errorf("%s: ApplyTo returned %v, want binenc.ErrCorrupt", name, err)
		}
	}
	if _, err := decode(rewriteDeltaTotal(t, raw, 1)).ApplyTo(base); err == nil {
		t.Error("a 13-copy delta applied to a one-copy base")
	}
	// The largest reachable counter still applies.
	ok := editFirstCopy(env, func(cs []uint64, _, _ *int64) { cs[0] = logN + 1 })
	es, err = SplitEnvelope(ok)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := AppendDelta(nil, es, 1, 2, []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(delta).ApplyTo(base); err != nil {
		t.Errorf("counter LogN+1 rejected: %v", err)
	}
}

// FuzzDeltaApplyTo is differential: a delta applied to a decoded base
// with Delta.ApplyTo and spliced into the base's envelope then opened
// either both fail, or both succeed and marshal to the same bytes.
// Neither may panic: gossip applies deltas on a goroutine with no
// recover. Bases are kept to the seeds' settings, whose hash functions
// are drawn once; a mutated header would spend each run drawing a new
// configuration's, and the base's counters still vary freely.
func FuzzDeltaApplyTo(f *testing.F) {
	addDeltaSeeds(f)
	l0 := NewL0(WithEpsilon(0.3), WithSeed(7), WithCopies(3), WithUniverseBits(16))
	l0.AddBatch(distinct(0, 300))
	l0.Update(distinct(0, 1)[0], -1)
	next := codecClone(f, l0)
	next.AddBatch(distinct(1000, 50))
	l0Env := mustBytes(f, l0)
	es, err := SplitEnvelope(mustBytes(f, next))
	if err != nil {
		f.Fatal(err)
	}
	l0Delta, err := AppendDelta(nil, es, 1, 2, []int{1}, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(l0Delta, l0Env)
	headers := map[string]bool{string(es.Header): true}
	f0, err := New(KindF0, WithEpsilon(0.2), WithSeed(7))
	if err != nil {
		f.Fatal(err)
	}
	headers[string(f0.(*F0).appendHeader(nil))] = true
	f.Fuzz(func(t *testing.T, delta, baseBytes []byte) {
		if es, err := SplitEnvelope(baseBytes); err != nil || !headers[string(es.Header)] {
			return
		}
		base, err := Open(baseBytes)
		if err != nil {
			return
		}
		env := mustBytes(t, base)
		var want []byte
		full, serr := ApplyDelta(env, delta)
		if serr == nil {
			var opened Estimator
			if opened, serr = Open(full); serr == nil {
				want = mustBytes(t, opened)
			}
		}
		var got []byte
		d, nerr := DecodeDelta(delta)
		if nerr == nil {
			var est Estimator
			if est, nerr = d.ApplyTo(base); nerr == nil {
				got = mustBytes(t, est)
			}
		}
		if (serr == nil) != (nerr == nil) {
			t.Fatalf("splice + Open error %v, ApplyTo error %v", serr, nerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("ApplyTo result marshals differently from splice + Open")
		}
		if !bytes.Equal(mustBytes(t, base), env) {
			t.Fatal("ApplyTo changed its base")
		}
	})
}
