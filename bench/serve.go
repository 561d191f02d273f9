package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	grouting "repro"
	"repro/internal/gen"
)

// serveSpec is what one daemon is told: its role and the generated inputs
// it needs. It never carries the run seed or the workload's name.
type serveSpec struct {
	Role string `json:"role"` // storage | processor | router

	// storage
	WALDir string `json:"wal_dir,omitempty"` // durable (fsync off) when set

	// processor and router
	Storage         []string `json:"storage,omitempty"`
	StorageReplicas int      `json:"storage_replicas,omitempty"`
	CacheBytes      int64    `json:"cache_bytes,omitempty"`

	// router
	Processors []string `json:"processors,omitempty"`
	Policy     string   `json:"policy,omitempty"`
	GraphFile  string   `json:"graph_file,omitempty"`
	EmbedFile  string   `json:"embed_file,omitempty"`
	PrepSeed   int64    `json:"prep_seed,omitempty"`
}

// ready is the one line a daemon child writes to its report pipe once it
// is listening.
type ready struct {
	Addr string `json:"addr"`
	Err  string `json:"err,omitempty"`
}

// serve starts one daemon through the public API only.
func serve(spec serveSpec) (addr string, closer io.Closer, err error) {
	switch spec.Role {
	case "storage":
		var ss *grouting.StorageServer
		if spec.WALDir != "" {
			ss, err = grouting.ServeStorageDurable("127.0.0.1:0", spec.WALDir, false)
		} else {
			ss, err = grouting.ServeStorage("127.0.0.1:0")
		}
		if err != nil {
			return "", nil, err
		}
		return ss.Addr(), ss, nil
	case "processor":
		ps, err := grouting.ServeProcessorWith("127.0.0.1:0", grouting.ProcessorSpec{
			Storage:         spec.Storage,
			StorageReplicas: spec.StorageReplicas,
			CacheBytes:      spec.CacheBytes,
		})
		if err != nil {
			return "", nil, err
		}
		return ps.Addr(), ps, nil
	case "router":
		policy, err := grouting.ParsePolicy(spec.Policy)
		if err != nil {
			return "", nil, err
		}
		g, err := readGraph(spec.GraphFile)
		if err != nil {
			return "", nil, err
		}
		rspec := grouting.RouterSpec{
			Processors:      spec.Processors,
			Policy:          policy,
			Graph:           g,
			Seed:            spec.PrepSeed,
			Storage:         spec.Storage,
			StorageReplicas: spec.StorageReplicas,
		}
		if spec.EmbedFile != "" {
			fp, err := grouting.OpenEmbeddingFile(spec.EmbedFile)
			if err != nil {
				return "", nil, err
			}
			rspec.EmbedProvider = fp
		}
		rs, err := grouting.ServeRouter("127.0.0.1:0", rspec)
		if err != nil {
			return "", nil, err
		}
		return rs.Addr(), rs, nil
	}
	return "", nil, fmt.Errorf("unknown role %q", spec.Role)
}

func writeGraph(path string, g *grouting.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gen.WriteAdjacency(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGraph(path string) (*grouting.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gen.ReadAdjacency(bufio.NewReaderSize(f, 1<<20))
}

// reportFD is the child's end of the report pipe (cmd.ExtraFiles[0]).
const reportFD = 3

// serveMain is the child role: start the daemon described by the JSON
// spec in args[0], report the ephemeral address over the pipe, and serve
// until stdin closes (the parent went away or asked us to stop) or a
// termination signal arrives.
func serveMain(args []string) int {
	report := os.NewFile(reportFD, "report")
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench serve:", err)
		if report != nil {
			json.NewEncoder(report).Encode(ready{Err: err.Error()}) //nolint:errcheck // best effort on the way out
			report.Close()
		}
		return 1
	}
	if len(args) != 1 {
		return fail(fmt.Errorf("want one JSON spec argument, got %d", len(args)))
	}
	var spec serveSpec
	if err := json.Unmarshal([]byte(args[0]), &spec); err != nil {
		return fail(err)
	}
	addr, closer, err := serve(spec)
	if err != nil {
		return fail(err)
	}
	defer closer.Close()
	if report == nil {
		return fail(fmt.Errorf("no report pipe on fd %d", reportFD))
	}
	if err := json.NewEncoder(report).Encode(ready{Addr: addr}); err != nil {
		return fail(err)
	}
	report.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any read end means the parent is gone
		close(eof)
	}()
	select {
	case <-sig:
	case <-eof:
	}
	return 0
}
