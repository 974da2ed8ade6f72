package cluster

import (
	"fmt"
	"sort"

	"repro/internal/binenc"
)

// The ring descriptor is the unit of membership agreement: one
// epoch-numbered, canonically-encoded statement of who the members
// are and how the ring over them is shaped. Dynamic membership is a
// sequence of descriptors — a node's committed descriptor plus (during
// a rebalance) the pending one it is cutting over to — and two nodes
// that hold the same descriptor compute identical vnode ownership with
// no further coordination, exactly as the static peer list did.
//
// Wire form ("KNWM"):
//
//	uvarint ringMagic ("KNWM")
//	uvarint version (1)
//	uvarint epoch
//	uvarint vnodes
//	uvarint replication
//	uvarint member count
//	bytes   member url, ×count (strictly ascending)
//
// The prepare body (POST /v1/cluster/ring) is two descriptors back to
// back: the proposed one, then the coordinator's committed one it was
// proposed from. Every member computes its handoff targets over that
// pair, whatever ring it booted with.
//
// Decode enforces Validate, so every descriptor that exists in memory
// is canonical: members sorted and unique, bounds sane. That makes
// byte-wise comparison of encodings a total order on descriptors —
// the deterministic tie-break for concurrent proposals at one epoch.
const (
	ringMagic   = 0x4b4e574d // "KNWM"
	ringVersion = 1
	// maxRingMembers bounds a descriptor's member list; far above any
	// deployment this codebase targets, low enough to reject garbage.
	maxRingMembers = 1024
	// maxMemberURL bounds one member URL's byte length.
	maxMemberURL = 512
	// maxRingVnodes bounds the per-member vnode count.
	maxRingVnodes = 4096
)

// RingDescriptor is one versioned membership statement.
type RingDescriptor struct {
	Epoch       uint64   `json:"epoch"`
	Members     []string `json:"members"` // sorted, unique base URLs
	Vnodes      int      `json:"vnodes"`
	Replication int      `json:"replication"`
}

// Validate checks bounds and canonical form (sorted, unique, sane
// member URLs). Member URLs may not contain commas, whitespace, or
// control bytes: they travel in comma-separated headers
// (X-KNW-Partial) and structured logs.
func (d *RingDescriptor) Validate() error {
	if d.Epoch == 0 {
		return fmt.Errorf("cluster: ring descriptor epoch 0")
	}
	if n := len(d.Members); n < 1 || n > maxRingMembers {
		return fmt.Errorf("cluster: ring descriptor has %d members (want 1..%d)", n, maxRingMembers)
	}
	if d.Vnodes < 1 || d.Vnodes > maxRingVnodes {
		return fmt.Errorf("cluster: ring descriptor vnodes %d outside [1, %d]", d.Vnodes, maxRingVnodes)
	}
	if d.Replication < 1 || d.Replication > len(d.Members) {
		return fmt.Errorf("cluster: ring descriptor replication %d outside [1, %d]", d.Replication, len(d.Members))
	}
	for i, m := range d.Members {
		if len(m) == 0 || len(m) > maxMemberURL {
			return fmt.Errorf("cluster: ring descriptor member %d has bad length %d", i, len(m))
		}
		for j := 0; j < len(m); j++ {
			if m[j] <= ' ' || m[j] == ',' || m[j] == 0x7f {
				return fmt.Errorf("cluster: ring descriptor member %q contains byte %#x", m, m[j])
			}
		}
		if i > 0 && d.Members[i-1] >= m {
			return fmt.Errorf("cluster: ring descriptor members not strictly sorted at %d (%q >= %q)",
				i, d.Members[i-1], m)
		}
	}
	return nil
}

// Encode appends the canonical wire form to buf (which may be nil).
func (d *RingDescriptor) Encode(buf []byte) []byte {
	w := binenc.Writer{Buf: buf}
	w.Uvarint(ringMagic)
	w.Uvarint(ringVersion)
	w.Uvarint(d.Epoch)
	w.Uvarint(uint64(d.Vnodes))
	w.Uvarint(uint64(d.Replication))
	w.Uvarint(uint64(len(d.Members)))
	for _, m := range d.Members {
		w.Bytes([]byte(m))
	}
	return w.Buf
}

// DecodeRingDescriptor parses and validates one KNWM descriptor,
// rejecting trailing bytes — the exact inverse of Encode.
func DecodeRingDescriptor(data []byte) (*RingDescriptor, error) {
	r := binenc.Reader{Buf: data}
	d, err := readRingDescriptor(&r)
	return d, noTrailing(&r, err)
}

// encodePrepare is the prepare body: next, then the committed
// descriptor from which it was proposed.
func encodePrepare(next, from *RingDescriptor) []byte {
	return from.Encode(next.Encode(nil))
}

// decodePrepare parses a prepare body, rejecting trailing bytes.
func decodePrepare(data []byte) (next, from *RingDescriptor, err error) {
	r := binenc.Reader{Buf: data}
	if next, err = readRingDescriptor(&r); err == nil {
		from, err = readRingDescriptor(&r)
	}
	return next, from, noTrailing(&r, err)
}

// noTrailing returns err, or an error if r has bytes left.
func noTrailing(r *binenc.Reader, err error) error {
	if err == nil && len(r.Buf) != 0 {
		err = fmt.Errorf("cluster: ring descriptor has %d trailing bytes", len(r.Buf))
	}
	return err
}

// readRingDescriptor parses and validates one descriptor from r.
func readRingDescriptor(r *binenc.Reader) (*RingDescriptor, error) {
	r.Expect(ringMagic, "ring descriptor magic")
	if v := r.Uvarint(); r.Err() == nil && v != ringVersion {
		return nil, fmt.Errorf("cluster: unsupported ring descriptor version %d", v)
	}
	d := &RingDescriptor{Epoch: r.Uvarint()}
	d.Vnodes = int(r.Uvarint())
	d.Replication = int(r.Uvarint())
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cluster: bad ring descriptor header: %w", err)
	}
	if count < 1 || count > maxRingMembers {
		return nil, fmt.Errorf("cluster: ring descriptor claims %d members", count)
	}
	d.Members = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		d.Members = append(d.Members, string(r.BytesView()))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("cluster: bad ring descriptor member: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Equal reports descriptor identity (canonical forms compare
// field-wise).
func (d *RingDescriptor) Equal(o *RingDescriptor) bool {
	if d.Epoch != o.Epoch || d.Vnodes != o.Vnodes || d.Replication != o.Replication ||
		len(d.Members) != len(o.Members) {
		return false
	}
	for i := range d.Members {
		if d.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// less orders two descriptors at the same epoch deterministically (the
// concurrent-proposal tie-break): byte-wise order of the canonical
// encodings. Every node that sees both proposals keeps the same one.
func (d *RingDescriptor) less(o *RingDescriptor) bool {
	a, b := d.Encode(nil), o.Encode(nil)
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// hasMember reports whether url is in the (sorted) member list.
func (d *RingDescriptor) hasMember(url string) bool {
	i := sort.SearchStrings(d.Members, url)
	return i < len(d.Members) && d.Members[i] == url
}

// withMember returns d's member list with url added (a no-op when
// already present), sorted.
func withMember(members []string, url string) []string {
	out := append(append([]string(nil), members...), url)
	sort.Strings(out)
	n := 0
	for i, m := range out {
		if i == 0 || m != out[n-1] {
			out[n] = m
			n++
		}
	}
	return out[:n]
}

// withoutMember returns the member list with url removed.
func withoutMember(members []string, url string) []string {
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m != url {
			out = append(out, m)
		}
	}
	return out
}
