package knw

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/bitutil"
)

// Kind names an estimator implementation: the two KNW sketch types
// plus the Figure 1 / Section 4 comparators from internal/baseline.
// Kinds are the registry keys for the New factory and the type tags in
// the self-describing wire envelope (envelope.go), so harnesses, the
// cmd/* benches, and the planned service front-end select
// implementations by name instead of hard-coded switches.
//
// Kind values are persisted in envelopes: never renumber existing
// kinds, only append.
type Kind uint8

const (
	// KindInvalid is the zero Kind; no estimator has it.
	KindInvalid Kind = iota

	// The KNW sketches (the paper's algorithms). These two are wire
	// kinds: they serialize, and Open restores them.
	KindF0 // insertion-only distinct elements (Theorems 2, 3, 9)
	KindL0 // turnstile L0 / Hamming norm (Theorem 10)

	// Retired tags of the sharded F0/L0 wrappers. They stay reserved so
	// no new kind reuses them: envelopes carrying them still load, folded
	// into KindF0/KindL0 (legacy.go), but nothing writes them.
	kindShardedF0
	kindShardedL0

	// The prior-art comparators (internal/baseline). In-memory only:
	// they estimate but do not serialize.
	KindExact          // exact hash-set counter (ground truth)
	KindFM85           // Flajolet–Martin PCSA [20]
	KindAMS            // Alon–Matias–Szegedy [3]
	KindGT             // Gibbons–Tirthapura [24]
	KindKMV            // k-minimum-values / BJKST-I [4]
	KindBJKST          // BJKST-II [4]
	KindLogLog         // Durand–Flajolet LogLog [16]
	KindLinearCounting // Estan–Varghese–Fisk bitmaps [17]
	KindHyperLogLog    // HyperLogLog [19]
	KindGangulyL0      // Ganguly's L0 with deletions [22]
)

// kindInfo is one registry row: the canonical name (what String prints
// and ParseKind accepts, along with the aliases), the factory, and —
// for wire kinds — the envelope/legacy-payload hooks used by Open.
type kindInfo struct {
	name    string
	aliases []string
	// make builds the estimator. cfg is the resolved option set; opts
	// is the raw option list for constructors that re-resolve (the KNW
	// sketches, so their own defaulting stays the single source of
	// truth).
	make func(cfg settings, opts []Option) Estimator
	// turnstile marks kinds whose estimators implement
	// TurnstileEstimator.
	turnstile bool
	// legacyMagic is the pre-envelope wire magic (wire kinds only).
	legacyMagic uint64
	// shardedMagic is the retired sharded payload magic (KNWS/KNWT)
	// whose payloads fold into this kind (legacy.go).
	shardedMagic uint64
	// empty returns a zero sketch ready for unmarshalLegacy (wire
	// kinds only).
	empty func() wireSketch
}

// wireSketch is the serialization surface a wire kind's estimator
// provides: Estimator plus the legacy-payload decoder Open dispatches
// to after unwrapping the envelope.
type wireSketch interface {
	Estimator
	unmarshalLegacy(data []byte) error
}

// kindRegistry drives New, Open, ParseKind, and Kinds. Adding an
// estimator to the library means adding one row here.
var kindRegistry = map[Kind]kindInfo{
	// The sharded kinds' names stay as aliases, so configurations that
	// still ask for them get the plain sketch.
	KindF0: {
		name:         "f0",
		aliases:      []string{"knw-f0", "knw", "concurrent-f0", "sharded-f0", "cf0"},
		make:         func(_ settings, opts []Option) Estimator { return NewF0(opts...) },
		legacyMagic:  f0Magic,
		shardedMagic: f0ShardedMagic,
		empty:        func() wireSketch { return new(F0) },
	},
	KindL0: {
		name:         "l0",
		aliases:      []string{"knw-l0", "concurrent-l0", "sharded-l0", "cl0"},
		make:         func(_ settings, opts []Option) Estimator { return NewL0(opts...) },
		turnstile:    true,
		legacyMagic:  l0Magic,
		shardedMagic: l0ShardedMagic,
		empty:        func() wireSketch { return new(L0) },
	},

	KindExact: {
		name: "exact",
		make: func(_ settings, _ []Option) Estimator { return baseline.NewExact() },
	},
	KindFM85: {
		name: "fm85", aliases: []string{"pcsa", "flajolet-martin"},
		make: func(cfg settings, _ []Option) Estimator {
			return baseline.NewFM85(sizeOverride(cfg, 64), uint64(cfg.seed))
		},
	},
	KindAMS: {
		name: "ams",
		make: func(cfg settings, _ []Option) Estimator {
			return baseline.NewAMS(cfg.copies, cfg.logN, cfg.rng())
		},
	},
	KindGT: {
		name: "gt", aliases: []string{"gibbons-tirthapura"},
		make: func(cfg settings, _ []Option) Estimator {
			return baseline.NewGT(tFor(cfg), cfg.logN, cfg.rng())
		},
	},
	KindKMV: {
		name: "kmv", aliases: []string{"bjkst-1", "bottom-k"},
		make: func(cfg settings, _ []Option) Estimator {
			return baseline.NewKMV(tFor(cfg), cfg.rng())
		},
	},
	KindBJKST: {
		name: "bjkst", aliases: []string{"bjkst-2"},
		make: func(cfg settings, _ []Option) Estimator {
			return baseline.NewBJKST(tFor(cfg), cfg.logN, cfg.rng())
		},
	},
	KindLogLog: {
		name: "loglog",
		make: func(cfg settings, _ []Option) Estimator {
			m := baseline.MForEpsilon(cfg.eps) * 2
			if m < 64 {
				m = 64
			}
			return baseline.NewLogLog(sizeOverride(cfg, m), uint64(cfg.seed))
		},
	},
	KindLinearCounting: {
		name: "linear-counting", aliases: []string{"estan-bitmap", "lc"},
		make: func(cfg settings, _ []Option) Estimator {
			// Linear counting needs its bitmap sized to the expected
			// cardinality; there is no universal default, so WithK is
			// effectively mandatory for serious use (1<<23 ≈ 8M bits
			// covers ~1M distinct at ≤1% error).
			return baseline.NewLinearCounting(sizeOverride(cfg, 1<<23), uint64(cfg.seed))
		},
	},
	KindHyperLogLog: {
		name: "hyperloglog", aliases: []string{"hll"},
		make: func(cfg settings, _ []Option) Estimator {
			return baseline.NewHyperLogLog(sizeOverride(cfg, baseline.MForEpsilon(cfg.eps)), uint64(cfg.seed))
		},
	},
	KindGangulyL0: {
		name: "ganguly-l0", aliases: []string{"ganguly"},
		make: func(cfg settings, _ []Option) Estimator {
			// Ganguly's structure requires a power-of-two table.
			s := int(bitutil.NextPow2(uint64(tFor(cfg))))
			if s < 32 {
				s = 32
			}
			return baseline.NewGangulyL0(s, cfg.logN, cfg.rng())
		},
		turnstile: true,
	},
}

// tFor maps the resolved ε to the sample-size parameter the
// ε⁻²-sample comparators (GT, KMV, BJKST, Ganguly) take, using the
// measured calibration from experiment E1 (the published constants are
// ~24× conservative at these workloads; see cmd/f0bench).
func tFor(cfg settings) int {
	if cfg.kOverride != 0 {
		return cfg.kOverride
	}
	t := baseline.TForEpsilon(cfg.eps) / 24
	if t < 16 {
		t = 16
	}
	return t
}

// sizeOverride lets WithK set the size parameter (bitmap width, bucket
// count) of the baseline kinds, mirroring its role as the direct size
// knob for the KNW sketches.
func sizeOverride(cfg settings, def int) int {
	if cfg.kOverride != 0 {
		return cfg.kOverride
	}
	return def
}

// String returns the canonical kind name (the one ParseKind accepts
// and the kind tables in cmd/* print).
func (k Kind) String() string {
	if info, ok := kindRegistry[k]; ok {
		return info.name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Turnstile reports whether the kind's estimators support deletions
// (implement TurnstileEstimator).
func (k Kind) Turnstile() bool { return kindRegistry[k].turnstile }

// Wire reports whether the kind serializes: its estimators implement
// MarshalBinary and Open can restore them.
func (k Kind) Wire() bool { return kindRegistry[k].empty != nil }

// ParseKind resolves a kind name (canonical or alias, case-insensitive)
// to its Kind.
func ParseKind(name string) (Kind, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for k, info := range kindRegistry {
		if info.name == want {
			return k, nil
		}
		for _, a := range info.aliases {
			if a == want {
				return k, nil
			}
		}
	}
	return KindInvalid, fmt.Errorf("knw: unknown kind %q (known: %s)", name, kindNames())
}

// Kinds returns every registered kind in stable (numeric) order.
func Kinds() []Kind {
	ks := make([]Kind, 0, len(kindRegistry))
	for k := range kindRegistry {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func kindNames() string {
	names := make([]string, 0, len(kindRegistry))
	for _, k := range Kinds() {
		names = append(names, kindRegistry[k].name)
	}
	return strings.Join(names, ", ")
}

// New builds an estimator of the given kind. All kinds accept the
// standard options (ε, δ, seed, universe bits, …), and WithK sets the
// direct size parameter of whichever structure the kind names. Unknown
// kinds return an error; invalid option values panic, as they do on
// the concrete constructors.
//
//	est, err := knw.New(knw.KindF0,
//		knw.WithEpsilon(0.02), knw.WithSeed(7))
//
// The concrete type behind the interface is the kind's own (type-assert
// to *F0 etc. for type-specific surfaces like Merge); the baseline
// kinds return internal comparators usable only through Estimator /
// TurnstileEstimator.
func New(kind Kind, opts ...Option) (Estimator, error) {
	info, ok := kindRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("knw: unknown kind %d (known: %s)", uint8(kind), kindNames())
	}
	cfg := defaultSettings()
	cfg.resolve(opts)
	return info.make(cfg, opts), nil
}

// NewTurnstile is New restricted to kinds that support deletions; it
// returns an error for insertion-only kinds.
func NewTurnstile(kind Kind, opts ...Option) (TurnstileEstimator, error) {
	info, ok := kindRegistry[kind]
	if !ok {
		return nil, fmt.Errorf("knw: unknown kind %d (known: %s)", uint8(kind), kindNames())
	}
	if !info.turnstile {
		return nil, fmt.Errorf("knw: kind %s does not support turnstile updates", kind)
	}
	est, err := New(kind, opts...)
	if err != nil {
		return nil, err
	}
	return est.(TurnstileEstimator), nil
}
