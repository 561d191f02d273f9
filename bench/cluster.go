package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	grouting "repro"
)

// daemon is one running tier member: a child process in a real run, an
// in-process server in the unit tests' smoke runs.
type daemon struct {
	role   string
	addr   string
	pid    int
	cmd    *exec.Cmd      // nil in-process
	stdin  io.WriteCloser // closing it asks the child to exit
	closer io.Closer      // in-process only
}

// stop ends the daemon and waits until it has.
func (d *daemon) stop() {
	if d.cmd == nil {
		if d.closer != nil {
			d.closer.Close()
		}
		return
	}
	d.stdin.Close()
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status of a stopped child carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-done
	}
}

// spawner starts one daemon from its spec.
type spawner func(spec serveSpec) (*daemon, error)

// spawnInProcess serves the daemon inside this process (unit tests).
func spawnInProcess(spec serveSpec) (*daemon, error) {
	addr, closer, err := serve(spec)
	if err != nil {
		return nil, err
	}
	return &daemon{role: spec.Role, addr: addr, pid: os.Getpid(), closer: closer}, nil
}

// spawnChild re-executes this binary in the serve role and reads the
// ephemeral address it reports over a pipe.
func spawnChild(spec serveSpec) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	cmd := exec.Command(self, "serve", string(arg))
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{pw}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		pw.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, err
	}
	pw.Close()
	d := &daemon{role: spec.Role, pid: cmd.Process.Pid, cmd: cmd, stdin: stdin}
	var rd ready
	line, err := bufio.NewReader(pr).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &rd)
	}
	if err == nil && rd.Err != "" {
		err = fmt.Errorf("%s", rd.Err)
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("%s child: %w", spec.Role, err)
	}
	d.addr = rd.Addr
	return d, nil
}

// setupTimes is the set-up breakdown; Total is setup_s.
type setupTimes struct {
	Gen, Spawn, Load, Prep, Warm, Total float64
	EmbedBuild                          float64
}

// cluster is one running deployment plus the client that drives it.
type cluster struct {
	dir     string
	daemons []*daemon // storage..., processors..., router
	storage []string
	procs   []string
	router  string
	client  grouting.Client
	times   setupTimes
	cacheB  int64 // per-processor cache capacity
}

// live tracks every cluster that is up, so a signal handler can tear all
// of them down.
var live struct {
	sync.Mutex
	clusters map[*cluster]bool
}

func (c *cluster) register() {
	live.Lock()
	defer live.Unlock()
	if live.clusters == nil {
		live.clusters = map[*cluster]bool{}
	}
	live.clusters[c] = true
}

// close stops the client and every daemon (router first, storage last)
// and removes the run's temp dir.
func (c *cluster) close() {
	live.Lock()
	delete(live.clusters, c)
	live.Unlock()
	if c.client != nil {
		c.client.Close()
		c.client = nil
	}
	for i := len(c.daemons) - 1; i >= 0; i-- {
		c.daemons[i].stop()
	}
	c.daemons = nil
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

func closeAllClusters() {
	live.Lock()
	var all []*cluster
	for c := range live.clusters {
		all = append(all, c)
	}
	live.Unlock()
	for _, c := range all {
		c.close()
	}
}

// setUp brings a deployment up from nothing and times each step: dataset
// generation, spawn, load, routing preprocessing (inside the router
// child) and one full warm pass. in carries the queries of the warm pass;
// the graph is regenerated here so that every set-up pays for it.
func setUp(ctx context.Context, in *inputs, seed int64, tmpRoot string, spawn spawner) (c *cluster, err error) {
	t0 := time.Now()
	w := in.w
	c = &cluster{}
	c.register()
	defer func(started *cluster) {
		if err != nil {
			started.close() // a failing return has already set c to nil
		}
	}(c)
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if c.dir, err = os.MkdirTemp(tmpRoot, "run-"); err != nil {
		return nil, err
	}

	// Dataset generation, and the artifacts the router child reads.
	g := generateGraph(seed, in.scale)
	graphFile := filepath.Join(c.dir, "graph.adj")
	if err := writeGraph(graphFile, g); err != nil {
		return nil, err
	}
	embedFile := ""
	if w.embedFile {
		// The embedding is built once per run (the oracle needs the same
		// coordinates); every set-up writes the artifact and is charged
		// the build time, as a deployment that prepares its own would be.
		embedFile = filepath.Join(c.dir, "coords.gemb")
		if err := grouting.WriteEmbeddingFile(embedFile, in.emb); err != nil {
			return nil, err
		}
		c.times.EmbedBuild = in.embedBuildS
	}
	c.times.Gen = time.Since(t0).Seconds() + c.times.EmbedBuild

	// Spawn storage and processors (the router is timed as Prep).
	t1 := time.Now()
	for i := 0; i < numStorage; i++ {
		spec := serveSpec{Role: "storage"}
		if w.durable {
			spec.WALDir = filepath.Join(c.dir, fmt.Sprintf("wal-%d", i))
		}
		d, err := spawn(spec)
		if err != nil {
			return nil, err
		}
		c.daemons = append(c.daemons, d)
		c.storage = append(c.storage, d.addr)
	}
	c.times.Spawn = time.Since(t1).Seconds()

	t2 := time.Now()
	if err := grouting.LoadStorageReplicated(ctx, g, c.storage, w.replicas); err != nil {
		return nil, fmt.Errorf("load storage: %w", err)
	}
	c.times.Load = time.Since(t2).Seconds()

	t3 := time.Now()
	c.cacheB = bigCache
	if w.cacheDivisor > 0 {
		c.cacheB = in.storedBytes / w.cacheDivisor / numProcessors
	}
	for i := 0; i < numProcessors; i++ {
		d, err := spawn(serveSpec{
			Role: "processor", Storage: c.storage,
			StorageReplicas: w.replicas, CacheBytes: c.cacheB,
		})
		if err != nil {
			return nil, err
		}
		c.daemons = append(c.daemons, d)
		c.procs = append(c.procs, d.addr)
	}
	c.times.Spawn += time.Since(t3).Seconds()

	t4 := time.Now()
	rd, err := spawn(serveSpec{
		Role: "router", Processors: c.procs, Policy: w.policy,
		GraphFile: graphFile, EmbedFile: embedFile,
		PrepSeed: derive(seed, streamPrep),
		Storage:  c.storage, StorageReplicas: w.replicas,
	})
	if err != nil {
		return nil, err
	}
	c.daemons = append(c.daemons, rd)
	c.router = rd.addr
	c.times.Prep = time.Since(t4).Seconds()

	t5 := time.Now()
	if c.client, err = grouting.Dial(ctx, c.router); err != nil {
		return nil, err
	}
	if err := warmPass(ctx, c.client, in); err != nil {
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	c.times.Warm = time.Since(t5).Seconds()
	c.times.Total = time.Since(t0).Seconds() + c.times.EmbedBuild
	return c, nil
}

// warmPass executes every query once, checking each answer, so caches,
// connection pools and lazy set-up are settled before anything is timed.
func warmPass(ctx context.Context, cl grouting.Client, in *inputs) error {
	clients := nproc()
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		go func(k int) {
			for i := k; i < len(in.queries); i += clients {
				res, err := cl.Execute(ctx, in.queries[i])
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				if res != in.want[i] {
					errs <- fmt.Errorf("query %d: got %+v, oracle says %+v", i, res, in.want[i])
					return
				}
			}
			errs <- nil
		}(k)
	}
	var first error
	for k := 0; k < clients; k++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// procUsage is one reading of a process's /proc accounting.
type procUsage struct {
	cpuS  float64 // user+sys CPU seconds so far
	hwmMB float64 // peak resident set (VmHWM), MiB
	// syscalls and ioBytes are the read and write system calls made so
	// far and the bytes they moved (sockets and files alike).
	syscalls float64
	ioBytes  float64
}

func (u *procUsage) add(o procUsage) {
	u.cpuS += o.cpuS
	u.hwmMB += o.hwmMB
	u.syscalls += o.syscalls
	u.ioBytes += o.ioBytes
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux ABI Go supports.
const clockTick = 100

// readProc reads user+sys CPU from /proc/<pid>/stat, VmHWM from
// /proc/<pid>/status and the read/write counters from /proc/<pid>/io.
func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ')' split.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	u.cpuS = (ut + st) / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			if len(fs) >= 2 {
				kb, _ := strconv.ParseFloat(fs[1], 64)
				u.hwmMB = kb / 1024
			}
		}
	}

	io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(val, 64)
		switch name {
		case "syscr", "syscw":
			u.syscalls += v
		case "rchar", "wchar":
			u.ioBytes += v
		}
	}
	return u, nil
}

// usage reads every daemon's accounting, summed per role (a pid shared by
// several in-process daemons counts once, under its first role).
func (c *cluster) usage() (map[string]procUsage, error) {
	out := map[string]procUsage{}
	seen := map[int]bool{}
	for _, d := range c.daemons {
		if seen[d.pid] {
			continue
		}
		seen[d.pid] = true
		u, err := readProc(d.pid)
		if err != nil {
			return nil, err
		}
		agg := out[d.role]
		agg.add(u)
		out[d.role] = agg
	}
	return out, nil
}

func sumUsage(m map[string]procUsage) procUsage {
	var t procUsage
	for _, u := range m {
		t.add(u)
	}
	return t
}
