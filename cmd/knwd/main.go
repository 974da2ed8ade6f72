// Command knwd is the KNW sketch daemon: a multi-tenant cardinality
// service over the paper's F0/L0 estimators. Pods POST keys at it,
// dashboards GET estimates, Prometheus scrapes /metrics, peer nodes
// exchange snapshot envelopes through /v1/merge, and a background
// checkpoint loop makes restarts lose at most one checkpoint
// interval.
//
//	knwd -listen :7070 -checkpoint-dir /var/lib/knwd \
//	     -kind f0 -epsilon 0.02 -seed 1 \
//	     -window-buckets 6 -window-interval 10m \
//	     -ready-file /run/knwd/ready
//
// Cluster mode joins N such daemons into one logical service (all
// peers must share -kind, sketch options, and -seed):
//
//	knwd -listen :7070 -seed 1 -replication 2 \
//	     -self http://10.0.0.1:7070 \
//	     -peers http://10.0.0.1:7070,http://10.0.0.2:7070,http://10.0.0.3:7070
//
// Membership is dynamic: a new node can join a running cluster through
// any existing member (-join), and -drain makes SIGTERM hand the
// node's sketches to the surviving owners before it stops:
//
//	knwd -listen :7074 -seed 1 -drain \
//	     -self http://10.0.0.4:7070 -join http://10.0.0.1:7070
//
// See the repository README ("Running knwd", "Cluster mode") for the
// API and curl examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	knw "repro"
	"repro/cluster"
	"repro/internal/trace"
	"repro/internal/version"
	"repro/service"
	"repro/store"
)

func main() {
	var (
		listen       = flag.String("listen", ":7070", "HTTP listen address")
		kindName     = flag.String("kind", "f0", "sketch kind for every store (a wire kind: f0 or l0; the retired names concurrent-f0 and concurrent-l0 select them too)")
		eps          = flag.Float64("epsilon", 0.05, "target relative standard error")
		delta        = flag.Float64("delta", 0.05, "failure probability (copies = O(log 1/delta))")
		seed         = flag.Int64("seed", 0, "sketch seed; REQUIRED (non-zero) for cross-node merging — peers must share it")
		universeBits = flag.Uint("universe-bits", 32, "log2 of the key universe")
		ckptDir      = flag.String("checkpoint-dir", "", "checkpoint directory (empty = no persistence)")
		ckptEvery    = flag.Duration("checkpoint-interval", 30*time.Second, "background checkpoint interval")
		winBuckets   = flag.Int("window-buckets", 0, "window ring size (0 = windowing off)")
		winInterval  = flag.Duration("window-interval", time.Minute, "width of one window bucket")
		readyFile    = flag.String("ready-file", "", "write the bound listen address to this file once serving (readiness probe for scripts)")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling; do not expose publicly)")
		peers        = flag.String("peers", "", "comma-separated base URLs of every cluster member including this node (e.g. http://10.0.0.1:7070,...); empty = single-node mode")
		selfURL      = flag.String("self", "", "this node's own base URL, exactly as it appears in -peers (required with -peers or -join)")
		joinVia      = flag.String("join", "", "base URL of an existing cluster member to join through; the node boots alone and is rebalanced in (requires -self and a shared -seed)")
		drain        = flag.Bool("drain", false, "on SIGTERM/SIGINT, leave the ring first: hand re-owned sketches to the surviving owners and commit the shrunken epoch before stopping")
		replication  = flag.Int("replication", 1, "cluster replicas per key, in [1, len(peers)]")
		gossipEvery  = flag.Duration("gossip-interval", 0, "anti-entropy gossip interval (cluster mode); 0 disables gossip. With gossip on, estimates answer O(1) from the merged replica view, staleness bounded by ~2x this interval")
		gossipFanout = flag.Int("gossip-fanout", 0, "peers synced per gossip round (0 = all peers every round)")
		traceSample  = flag.Float64("trace-sample", 0.01, "probability a request starts a trace, in [0, 1] (sampled traces appear in GET /v1/debug/traces)")
		traceSlowMs  = flag.Float64("trace-slow-ms", 250, "record and log every request at least this slow even when unsampled; 0 disables")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		showVersion  = flag.Bool("version", false, "print the knwd version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Printf("knwd %s (%s)\n", version.Version, runtime.Version())
		return
	}

	logger, err := trace.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatalf("knwd: %v", err)
	}

	kind, err := knw.ParseKind(*kindName)
	if err != nil {
		log.Fatalf("knwd: %v", err)
	}
	opts := []knw.Option{
		knw.WithEpsilon(*eps),
		knw.WithDelta(*delta),
		knw.WithUniverseBits(*universeBits),
	}
	switch {
	case *seed != 0:
		opts = append(opts, knw.WithSeed(*seed))
	case *ckptDir != "":
		// Persistence without an explicit seed: pin a per-directory seed
		// in a sidecar file. Without this, every restart would draw a
		// fresh time seed and reject its own checkpoint as incompatible.
		s, err := loadOrCreateSeed(*ckptDir)
		if err != nil {
			log.Fatalf("knwd: %v", err)
		}
		opts = append(opts, knw.WithSeed(s))
		fmt.Fprintf(os.Stderr, "knwd: no -seed given; using persisted seed %d from %s (peers need the same seed to merge)\n", s, *ckptDir)
	default:
		fmt.Fprintln(os.Stderr, "knwd: warning: no -seed given; snapshots from this node will not merge into other nodes")
	}

	var clusterCfg *cluster.Config
	if *peers != "" || *joinVia != "" {
		if *selfURL == "" {
			log.Fatal("knwd: cluster mode requires -self (this node's own URL)")
		}
		if *seed == 0 {
			// Merging across nodes is the whole point of cluster mode, and
			// envelopes only merge under a shared seed.
			log.Fatal("knwd: cluster mode requires an explicit -seed shared by every peer")
		}
		peerList := []string{*selfURL}
		if *peers != "" {
			peerList = strings.Split(*peers, ",")
		}
		clusterCfg = &cluster.Config{
			Self:           *selfURL,
			Peers:          peerList,
			Replication:    *replication,
			GossipInterval: *gossipEvery,
			GossipFanout:   *gossipFanout,
			Log:            logger,
		}
	} else if *gossipEvery > 0 {
		log.Fatal("knwd: -gossip-interval needs cluster mode (-peers/-self)")
	}
	if *drain && clusterCfg == nil {
		log.Fatal("knwd: -drain needs cluster mode (-peers or -join)")
	}

	srv, err := service.New(service.Config{
		Store: store.Config{
			Kind:    kind,
			Options: opts,
			Window:  store.Window{Buckets: *winBuckets, Interval: *winInterval},
		},
		Cluster:         clusterCfg,
		JoinVia:         *joinVia,
		DrainOnShutdown: *drain,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Pprof:           *pprofOn,
		Log:             logger,
		Trace: trace.Config{
			Sample: *traceSample,
			Slow:   time.Duration(*traceSlowMs * float64(time.Millisecond)),
			Log:    logger,
		},
		OnListen: func(addr net.Addr) {
			// The ready file appears only after the listener is bound, so
			// scripts wait on the file instead of sleep-polling the port.
			if *readyFile == "" {
				return
			}
			if werr := os.WriteFile(*readyFile, []byte(addr.String()+"\n"), 0o644); werr != nil {
				logger.Error("writing ready file", "path", *readyFile, "err", werr)
			}
		},
	})
	if err != nil {
		log.Fatalf("knwd: %v", err)
	}

	// SIGINT/SIGTERM cancel the context; Run drains requests and writes
	// the final checkpoint before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, *listen); err != nil {
		log.Fatalf("knwd: %v", err)
	}
}

// loadOrCreateSeed reads dir/seed, or draws a time seed and writes it
// on first run, so unseeded daemons keep one sketch identity across
// restarts (checkpoints only load under the seed they were written
// with).
func loadOrCreateSeed(dir string) (int64, error) {
	path := filepath.Join(dir, "seed")
	if b, err := os.ReadFile(path); err == nil {
		s, perr := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if perr != nil || s == 0 {
			return 0, fmt.Errorf("corrupt seed file %s: %q", path, b)
		}
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	s := time.Now().UnixNano()
	if err := os.WriteFile(path, []byte(strconv.FormatInt(s, 10)+"\n"), 0o644); err != nil {
		return 0, err
	}
	return s, nil
}
