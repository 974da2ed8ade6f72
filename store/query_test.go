package store

import (
	"bytes"
	"errors"
	"testing"
	"time"

	knw "repro"
)

// Series exact-boundary tables: with ε=0.05 the counts below sit in
// the sketch's exact small-count regime, so every expectation is
// asserted exactly — bucket attribution, span clamping, epochs,
// wall-clock bounds, union-not-sum window semantics, and expiry.

// seriesFixture ingests three intervals into a 4-bucket ring:
//
//	t=0: 24 keys "a"           → bucket epoch e
//	t=1: 12 keys "b"           → bucket epoch e+1
//	t=2: 48 keys "c" + 12 "a"  → bucket epoch e+2 (60 distinct,
//	                             12 shared with the t=0 bucket)
//
// and leaves the clock at t=2. Each ingest is followed by a read
// barrier: under the fake clock there is no background drain loop, and
// delta slots attribute keys to the bucket current at drain time, so
// the drain must happen before the clock leaves the interval.
func seriesFixture(t *testing.T) (*Store, func(float64)) {
	t.Helper()
	s, setClock := windowTestStore(t, 4, time.Minute)
	ingest := func(ks []string) {
		t.Helper()
		if err := s.Ingest("t/m", ks); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Estimate("t/m"); err != nil {
			t.Fatal(err)
		}
	}
	setClock(0)
	ingest(keys("a", 0, 24))
	setClock(1)
	ingest(keys("b", 0, 12))
	setClock(2)
	ingest(append(keys("c", 0, 48), keys("a", 0, 12)...))
	return s, setClock
}

func TestSeriesBoundaries(t *testing.T) {
	cases := []struct {
		name       string
		span       time.Duration
		wantEsts   []float64 // oldest → newest
		wantWindow float64   // union over the span, NOT the bucket sum
	}{
		// span 0 = the full ring: the 4th bucket predates the ring's
		// first write and is empty. Union is 84, not the 96 a
		// per-bucket sum would give: the 12 "a" keys in the newest
		// bucket already count in the oldest.
		{"full ring", 0, []float64{0, 24, 12, 60}, 84},
		// One interval exactly: just the live bucket.
		{"one interval", time.Minute, []float64{60}, 60},
		// 90s rounds up to 2 buckets.
		{"rounds up", 90 * time.Second, []float64{12, 60}, 72},
		// Three whole buckets: the t=0 bucket is inside the span, so
		// the shared "a" keys still count once.
		{"three buckets", 3 * time.Minute, []float64{24, 12, 60}, 84},
		// A span beyond the ring clamps to the ring.
		{"clamped", 10 * time.Hour, []float64{0, 24, 12, 60}, 84},
		// Sub-interval spans round up to one bucket.
		{"sub-interval", time.Second, []float64{60}, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := seriesFixture(t)
			got, err := s.Series("t/m", tc.span)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Buckets) != len(tc.wantEsts) {
				t.Fatalf("got %d buckets, want %d", len(got.Buckets), len(tc.wantEsts))
			}
			for i, want := range tc.wantEsts {
				if got.Buckets[i].Estimate != want {
					t.Errorf("bucket %d estimate = %.1f, want exactly %.1f", i, got.Buckets[i].Estimate, want)
				}
			}
			if got.Window != tc.wantWindow {
				t.Errorf("window = %.1f, want exactly %.1f", got.Window, tc.wantWindow)
			}
			// Delta/rate always compare the two newest ring buckets:
			// 60 − 12 over a one-minute interval.
			if got.Delta != 48 {
				t.Errorf("delta = %.1f, want exactly 48", got.Delta)
			}
			if got.RatePerSec != 48.0/60 {
				t.Errorf("rate = %v, want %v", got.RatePerSec, 48.0/60)
			}
		})
	}
}

// Epochs are consecutive, wall-aligned (Start = Epoch·interval), and
// each bucket covers exactly one interval.
func TestSeriesEpochAlignment(t *testing.T) {
	s, _ := seriesFixture(t)
	got, err := s.Series("t/m", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got.Buckets {
		if want := time.Unix(0, b.Epoch*int64(time.Minute)); !b.Start.Equal(want) {
			t.Errorf("bucket %d start = %v, want %v", i, b.Start, want)
		}
		if !b.End.Equal(b.Start.Add(time.Minute)) {
			t.Errorf("bucket %d end = %v, want start+interval", i, b.End)
		}
		if i > 0 && b.Epoch != got.Buckets[i-1].Epoch+1 {
			t.Errorf("bucket %d epoch %d does not follow %d", i, b.Epoch, got.Buckets[i-1].Epoch)
		}
	}
	// The newest bucket ends in the future: it is still filling.
	if got.Interval != "1m0s" || got.Span != "4m0s" {
		t.Errorf("interval/span = %q/%q, want 1m0s/4m0s", got.Interval, got.Span)
	}
}

// A gap past the ring span expires every bucket: the series reads all
// zeros but keeps its shape, and rates read 0.
func TestSeriesFullExpiry(t *testing.T) {
	s, setClock := seriesFixture(t)
	setClock(10)
	got, err := s.Series("t/m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Buckets) != 4 {
		t.Fatalf("got %d buckets, want 4", len(got.Buckets))
	}
	for i, b := range got.Buckets {
		if b.Estimate != 0 {
			t.Errorf("bucket %d after expiry = %.1f, want 0", i, b.Estimate)
		}
	}
	if got.Window != 0 || got.Delta != 0 || got.RatePerSec != 0 {
		t.Errorf("window/delta/rate after expiry = %v/%v/%v, want zeros", got.Window, got.Delta, got.RatePerSec)
	}
}

func TestSeriesErrors(t *testing.T) {
	s, _ := seriesFixture(t)
	if _, err := s.Series("never/written", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown store: err = %v, want ErrNotFound", err)
	}
	flat, err := New(Config{Kind: knw.KindF0, Options: []knw.Option{knw.WithSeed(1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	if err := flat.Ingest("t/m", keys("a", 0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Series("t/m", 0); !errors.Is(err, ErrNotWindowed) {
		t.Errorf("unwindowed store: err = %v, want ErrNotWindowed", err)
	}
	if _, err := flat.RingSnapshot("t/m"); !errors.Is(err, ErrNotWindowed) {
		t.Errorf("unwindowed ring snapshot: err = %v, want ErrNotWindowed", err)
	}
	_ = s
}

// RingSnapshot round-trips through the ring export (a StreamRing
// record stream), and the decoded buckets union to exactly the
// windowed estimate.
func TestRingSnapshotRoundTrip(t *testing.T) {
	s, _ := seriesFixture(t)
	rs, err := s.RingSnapshot("t/m")
	if err != nil {
		t.Fatal(err)
	}
	blob := AppendRingStream(nil, "t/m", rs)
	st, err := DecodeStream(blob, StreamRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 1 || st.Records[0].Name != "t/m" || len(st.Records[0].Env) != 0 {
		t.Fatalf("ring export records: %+v", st.Records)
	}
	dec, err := s.OpenRing(st.Records[0].Ring)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Interval != time.Minute {
		t.Errorf("interval = %v, want 1m", dec.Interval)
	}
	if len(dec.Buckets) != 4 {
		t.Fatalf("got %d buckets, want 4", len(dec.Buckets))
	}
	var union knw.Estimator
	for i, b := range dec.Buckets {
		if b.Epoch != rs.Buckets[i].Epoch {
			t.Errorf("bucket %d epoch = %d, want %d", i, b.Epoch, rs.Buckets[i].Epoch)
		}
		// A decoded bucket encodes to the bytes of the copy it came from.
		want := appendSketch(nil, rs.Buckets[i].Sketch)
		if got := appendSketch(nil, b.Sketch); !bytes.Equal(got, want) {
			t.Errorf("bucket %d: decoded sketch encodes differently from the copy", i)
		}
		est := b.Sketch
		if union == nil {
			union = est
		} else if err := knw.MergeInto(union, est); err != nil {
			t.Fatalf("bucket %d: %v", i, err)
		}
	}
	if got := union.Estimate(); got != 84 {
		t.Errorf("union of decoded buckets = %.1f, want exactly 84", got)
	}

	// Truncated, padded and corrupt blobs fail loudly, not silently.
	if _, err := DecodeStream(blob[:len(blob)/2], StreamRing); err == nil {
		t.Error("truncated blob decoded")
	}
	if _, err := DecodeStream(append(blob, 0), StreamRing); err == nil {
		t.Error("blob with a trailing byte decoded")
	}
	if _, err := DecodeStream([]byte{0x01, 0x02}, StreamRing); err == nil {
		t.Error("garbage blob decoded")
	}
}

// SetQuery runs inclusion–exclusion over store snapshots: exact in the
// small-count regime, for both all-time and windowed scopes.
func TestSetQuery(t *testing.T) {
	s, setClock := windowTestStore(t, 4, time.Minute)
	setClock(0)
	if err := s.Ingest("col/a", keys("k", 0, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("col/b", keys("k", 20, 60)); err != nil {
		t.Fatal(err)
	}
	for _, windowed := range []bool{false, true} {
		st, err := s.SetQuery([]string{"col/a", "col/b"}, windowed)
		if err != nil {
			t.Fatalf("windowed=%v: %v", windowed, err)
		}
		if st.Union != 60 || st.Intersection != 20 {
			t.Errorf("windowed=%v: union/inter = %.1f/%.1f, want 60/20", windowed, st.Union, st.Intersection)
		}
		if st.Jaccard != 20.0/60 {
			t.Errorf("windowed=%v: jaccard = %v, want %v", windowed, st.Jaccard, 20.0/60)
		}
	}
	// Windowed scope sees only live buckets: advance past the span so
	// everything expires, then re-ingest only col/b.
	setClock(10)
	if err := s.Ingest("col/b", keys("k", 20, 60)); err != nil {
		t.Fatal(err)
	}
	st, err := s.SetQuery([]string{"col/a", "col/b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cards[0] != 0 || st.Cards[1] != 40 || st.Intersection != 0 {
		t.Errorf("after expiry: cards/inter = %v/%v/%.1f, want 0/40/0", st.Cards[0], st.Cards[1], st.Intersection)
	}
	// All-time scope still remembers everything.
	st, err = s.SetQuery([]string{"col/a", "col/b"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Union != 60 {
		t.Errorf("all-time union after expiry = %.1f, want 60", st.Union)
	}
	if _, err := s.SetQuery([]string{"col/a", "missing"}, false); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing store: err = %v, want ErrNotFound", err)
	}
}
