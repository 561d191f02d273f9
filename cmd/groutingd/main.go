// Command groutingd runs one daemon of the decoupled deployment: a storage
// shard, a query processor, or the query router — the public
// grouting.ServeStorage / ServeProcessorWith / ServeRouter entry points as a
// binary.
//
// A minimal localhost deployment:
//
//	groutingd -role storage -listen 127.0.0.1:7001 &
//	groutingd -role storage -listen 127.0.0.1:7002 &
//	groutingd -role processor -listen 127.0.0.1:7101 \
//	    -storage 127.0.0.1:7001,127.0.0.1:7002 &
//	groutingd -role router -listen 127.0.0.1:7200 \
//	    -processors 127.0.0.1:7101 -policy landmark \
//	    -dataset webgraph -graphscale 0.05 &
//
// Both tiers are elastic: additional processors join the running router
// at any time with -join (the router verifies them, bumps the topology
// epoch and starts routing to them immediately), storage shards -join the
// router's storage view the same way, and SIGINT / SIGTERM shuts every
// role down gracefully — a joined member first deregisters through the
// drain path, so the router sees a clean leave rather than a dead peer:
//
//	groutingd -role processor -listen 127.0.0.1:7102 \
//	    -storage 127.0.0.1:7001,127.0.0.1:7002 \
//	    -join 127.0.0.1:7200 &
//
// The storage tier can be replicated: load it with grouting-cli -load
// -replicas 2 and start every processor with -storage-replicas 2. Reads
// then fail over transparently when a shard dies and recover when it
// answers again; grouting-cli -topology shows both tiers' membership.
//
// Smart routing policies need the graph for preprocessing, so the router
// regenerates the named dataset (the same seeded generator grouting-cli
// uses to load the storage tier). Clients connect to the router with
// grouting.Dial.
//
// Every role can additionally expose its runtime counters over HTTP with
// -http addr: GET /statsz returns them as JSON (for the router, the full
// system-wide grouting.Stats snapshot — per-processor placement, topology
// epoch, cache hit rates, routing-decision percentiles), and /debug/vars
// serves the same data through the standard expvar surface for scrapers.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	grouting "repro"
	"repro/internal/cliutil"
	"repro/internal/gen"
)

func main() {
	var (
		role       = flag.String("role", "", "storage | processor | router")
		listen     = flag.String("listen", "127.0.0.1:0", "listen address")
		httpAddr   = flag.String("http", "", "serve /statsz (JSON) and expvar /debug/vars on this address (empty = disabled)")
		storage    = flag.String("storage", "", "comma-separated storage addresses (processor role; optional for the router role, to seed its storage view)")
		replicas   = flag.Int("storage-replicas", 1, "storage replication factor (processor + router roles; must match what the loader used)")
		processors = flag.String("processors", "", "comma-separated processor addresses (router role)")
		join       = flag.String("join", "", "router address to register with at startup (processor and storage roles)")
		walDir     = flag.String("wal-dir", "", "storage role: log every write to a WAL under this directory and recover from it on restart (empty = in-memory only)")
		walFsync   = flag.Bool("wal-fsync", false, "storage role: fsync every WAL append (machine-crash durable; default is process-death durable)")
		advertise  = flag.String("advertise", "", "address announced to the router on -join (default: the listen address)")
		policy     = flag.String("policy", "nextready", "routing policy (any registered strategy; see grouting-cli -policy list)")
		cacheMB    = flag.Int64("cache-mb", 256, "processor cache capacity in MiB")
		dataset    = flag.String("dataset", "webgraph", "dataset preset for smart-routing preprocessing (router role)")
		graphScale = flag.Float64("graphscale", 0.05, "dataset scale for preprocessing (router role)")
		seed       = flag.Int64("seed", 42, "generator / preprocessing seed")
		embedFile  = flag.String("embed-file", "", "router role: precomputed embedding artifact (grouting.WriteEmbeddingFile) used in place of the learned embedding for routing and k-nearest queries")
	)
	flag.Parse()

	switch *role {
	case "storage":
		var s *grouting.StorageServer
		var err error
		if *walDir != "" {
			s, err = grouting.ServeStorageDurable(*listen, *walDir, *walFsync)
			exitOn(err)
			st := s.Stats().Storage
			fmt.Printf("storage shard listening on %s (%s, durable version %d under %s)\n",
				s.Addr(), st.Durable, st.DurableVersion, *walDir)
		} else {
			s, err = grouting.ServeStorage(*listen)
			exitOn(err)
			fmt.Printf("storage shard listening on %s\n", s.Addr())
		}
		if *join != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			slot, err := s.Register(ctx, *join, *advertise)
			cancel()
			exitOn(err)
			fmt.Printf("joined router %s as storage slot %d\n", *join, slot)
		}
		serveHTTP(*httpAddr, func() (any, error) { return s.Stats(), nil })
		awaitSignal()
		// Shutdown order matters for durability: flush + fsync the WAL
		// while still serving (every acked write reaches disk), then leave
		// the router's view cleanly, then close the listener.
		fmt.Println("shutting down storage shard")
		if err := s.SyncWAL(); err != nil {
			fmt.Fprintf(os.Stderr, "wal sync: %v\n", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Deregister(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "deregister: %v\n", err)
		}
		cancel()
		s.Close()
	case "processor":
		addrs, err := cliutil.SplitAddrs(*storage)
		exitOn(err)
		if len(addrs) == 0 {
			exitOn(fmt.Errorf("processor role needs -storage"))
		}
		p, err := grouting.ServeProcessorWith(*listen, grouting.ProcessorSpec{
			Storage: addrs, StorageReplicas: *replicas, CacheBytes: *cacheMB << 20,
		})
		exitOn(err)
		fmt.Printf("processor listening on %s (storage: %s, replicas %d)\n", p.Addr(), *storage, *replicas)
		if *join != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			slot, err := p.Register(ctx, *join, *advertise)
			cancel()
			exitOn(err)
			fmt.Printf("joined router %s as processor slot %d\n", *join, slot)
		}
		serveHTTP(*httpAddr, func() (any, error) { return p.Stats(), nil })
		awaitSignal()
		// Leave cleanly: the router drains us (no new work, in-flight
		// queries finish on the old view) before we close the listener.
		fmt.Println("shutting down processor")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := p.Deregister(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "deregister: %v\n", err)
		}
		cancel()
		p.Close()
	case "router":
		addrs, err := cliutil.SplitAddrs(*processors)
		exitOn(err)
		if len(addrs) == 0 {
			exitOn(fmt.Errorf("router role needs -processors (more can -join later)"))
		}
		pol, err := grouting.ParsePolicy(*policy)
		exitOn(err)
		spec := grouting.RouterSpec{
			Processors: addrs, Policy: pol, Seed: *seed, StorageReplicas: *replicas,
		}
		if *storage != "" {
			saddrs, err := cliutil.SplitAddrs(*storage)
			exitOn(err)
			spec.Storage = saddrs
		}
		if pol.NeedsLandmarks() {
			g, err := gen.Preset(gen.Dataset(*dataset), *graphScale, *seed)
			exitOn(err)
			spec.Graph = g
		}
		if *embedFile != "" {
			fp, err := grouting.OpenEmbeddingFile(*embedFile)
			exitOn(err)
			spec.EmbedProvider = fp
			fmt.Printf("embedding from %s (%d dims)\n", *embedFile, fp.Dimensions())
		}
		r, err := grouting.ServeRouter(*listen, spec)
		exitOn(err)
		fmt.Printf("router listening on %s (policy %s, %d processors, epoch %d)\n",
			r.Addr(), pol, len(addrs), r.Epoch())
		serveHTTP(*httpAddr, func() (any, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			return r.Snapshot(ctx)
		})
		awaitSignal()
		fmt.Println("shutting down router")
		r.Close()
	default:
		fmt.Fprintln(os.Stderr, "need -role storage|processor|router")
		flag.Usage()
		os.Exit(2)
	}
}

// awaitSignal blocks until SIGINT or SIGTERM, then returns so the caller
// can shut its daemon down gracefully (close listeners, deregister from
// the router) instead of dying mid-request.
func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
}

// serveHTTP exposes the daemon's counters on addr: /statsz as plain JSON
// and /debug/vars through expvar (the snapshot is published as the
// "grouting" variable). No-op when addr is empty.
func serveHTTP(addr string, stats func() (any, error)) {
	if addr == "" {
		return
	}
	expvar.Publish("grouting", expvar.Func(func() any {
		v, err := stats()
		if err != nil {
			return map[string]string{"error": err.Error()}
		}
		return v
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		v, err := stats()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	exitOn(err)
	fmt.Printf("http stats on http://%s/statsz\n", ln.Addr())
	go http.Serve(ln, mux)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
