package httpx

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/store"
)

// recordingSink logs each batch as "S|H store n" ("S" for string keys,
// "H" for hashed), and fails once failAt batches have landed.
type recordingSink struct {
	calls  []string
	failAt int
}

func (k *recordingSink) note(kind, name string, n int) error {
	if k.failAt > 0 && len(k.calls) == k.failAt {
		return errors.New("sink refused")
	}
	k.calls = append(k.calls, fmt.Sprintf("%s %s %d", kind, name, n))
	return nil
}

func (k *recordingSink) Strings(name string, keys []string) error {
	return k.note("S", name, len(keys))
}

func (k *recordingSink) Hashed(name string, keys []uint64) error {
	return k.note("H", name, len(keys))
}

// smallReads delivers r at most n bytes per Read.
type smallReads struct {
	r io.Reader
	n int
}

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

func lines(n int) string {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "k%d\n", i)
	}
	return b.String()
}

func jsonKeys(n int) string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%q", fmt.Sprint("k", i))
	}
	return "[" + strings.Join(keys, ",") + "]"
}

func hashes(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// TestDecodeIngestContract pins what DecodeIngest hands a sink for
// each body format: batch sizes, create-on-empty batches, and on
// failure the keys decoded before it plus the error.
func TestDecodeIngestContract(t *testing.T) {
	frameOf := func(docs ...func([]byte) []byte) string {
		b := frame.AppendHeader(nil)
		for _, d := range docs {
			b = d(b)
		}
		return string(b)
	}
	doc := func(name string, n int) func([]byte) []byte {
		return func(b []byte) []byte { return frame.AppendDoc(b, name, hashes(n)) }
	}
	full := frameOf(doc("", 5000))
	cases := []struct {
		name, ct, store, body string
		failAt                int
		calls                 []string
		keys, docs            int
		last, err             string
	}{
		{name: "lines", ct: "text/plain", store: "s", body: "a\nb\r\n\n\r\nc",
			calls: []string{"S s 3"}, keys: 3, last: "s"},
		{name: "lines batched", store: "s", body: lines(store.BatchKeys + 1),
			calls: []string{"S s 4096", "S s 1"}, keys: 4097, last: "s"},
		{name: "lines empty", store: "s", body: "\n\r\n",
			calls: []string{"S s 0"}, last: "s"},
		{name: "lines bad name", store: "", body: "a\n", err: "empty store name"},
		{name: "lines oversize key", store: "s", body: "a\nb\n" + strings.Repeat("x", MaxKeyBytes+1),
			calls: []string{"S s 2"}, keys: 2, last: "s", err: "exceeds"},
		{name: "lines sink error", store: "s", body: lines(store.BatchKeys + 1), failAt: 1,
			calls: []string{"S s 4096"}, keys: 4096, last: "s", err: "sink refused"},
		{name: "json docs", ct: "application/json", store: "s",
			body:  `{"store":"x","keys":[]}` + "\n" + `{"keys":["a","b"]}`,
			calls: []string{"S x 0", "S s 2"}, keys: 2, docs: 2, last: "s"},
		{name: "json split", ct: "application/json", store: "s",
			body:  `{"store":"x","keys":` + jsonKeys(store.BatchKeys+1) + `}`,
			calls: []string{"S x 4096", "S x 1"}, keys: 4097, docs: 1, last: "x"},
		{name: "json zero docs", ct: "application/json", store: "s", body: " \n",
			calls: []string{"S s 0"}, last: "s"},
		{name: "json zero docs bad name", ct: "application/json", store: "", err: "empty store name"},
		{name: "json bad doc", ct: "application/json", store: "s",
			body:  `{"keys":["a"]}{"keys":["b",}`,
			calls: []string{"S s 1"}, keys: 1, docs: 1, last: "s", err: "decoding JSON body"},
		{name: "frame full batches", ct: FrameContentType, store: "s", body: full,
			calls: []string{"H s 4096", "H s 904"}, keys: 5000, docs: 1, last: "s"},
		{name: "frame zero-count doc", ct: FrameContentType, store: "s", body: frameOf(doc("z", 0), doc("", 2)),
			calls: []string{"H z 0", "H s 2"}, keys: 2, docs: 2, last: "s"},
		{name: "frame header only", ct: FrameContentType, store: "s", body: frameOf(),
			calls: []string{"H s 0"}, last: "s"},
		{name: "frame truncated", ct: FrameContentType, store: "s", body: full[:len(full)-8*4990-3],
			calls: []string{"H s 9"}, keys: 9, last: "s", err: "unexpected EOF"},
		{name: "frame bad name", ct: FrameContentType, store: "s", body: frameOf(doc("a\x01", 1)),
			err: "control characters"},
	}
	for _, c := range cases {
		sink := &recordingSink{failAt: c.failAt}
		// Tiny reads cross every refill boundary; the oversize-key body
		// reads in pages so it does not take a million calls.
		body := smallReads{r: strings.NewReader(c.body), n: 7}
		if len(c.body) > MaxKeyBytes {
			body.n = 4 << 10
		}
		p, err := DecodeIngest(body, c.ct, c.store, sink)
		if !slices.Equal(sink.calls, c.calls) {
			t.Errorf("%s: sink saw %q, want %q", c.name, sink.calls, c.calls)
		}
		if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
		}
		if p.Keys != c.keys || p.Docs != c.docs || p.Bytes != int64(len(c.body)) && c.err == "" {
			t.Errorf("%s: progress %+v, want %d keys, %d docs, %d bytes", c.name, p, c.keys, c.docs, len(c.body))
		}
		if c.err == "" && p.Store != c.last {
			t.Errorf("%s: last store %q, want %q", c.name, p.Store, c.last)
		}
		var serr *SinkError
		if got := errors.As(err, &serr); got != (c.failAt > 0) {
			t.Errorf("%s: error %v is a SinkError: %v", c.name, err, got)
		}
	}
}
