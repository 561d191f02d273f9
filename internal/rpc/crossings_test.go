package rpc

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The ping rows of the crossings ledger run both ends of the conn in
// child processes, copies of this test binary, and read each child's
// /proc/<pid>/io: the test process itself keeps a timer pending for its
// -timeout, and while any timer is pending idle threads break the
// netpoller, which the rows count. pingPeerEnv names a child's role:
// "server", or "client" with its arguments on the command line.
const pingPeerEnv = "RPC_TEST_PING_PEER"

func TestMain(m *testing.M) {
	switch os.Getenv(pingPeerEnv) {
	case "server":
		servePings()
	case "client":
		sendPings(os.Args[1:])
	default:
		os.Exit(m.Run())
	}
}

// servePings answers pings on a loopback port, whose address it prints,
// until its stdin closes.
func servePings() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr())
	go serve(ln, func(context.Context, *Request) Response { return Response{OK: true} }, nil)
	io.Copy(io.Discard, os.Stdin)
}

// sendPings is the client child (args: address, callers, deadline): it
// dials, sends a warm-up of 100 pings per caller and prints "ready", then
// sends pingsPerCaller per caller when a line arrives on stdin and prints
// "done". Each caller sends its pings one after another, under a context
// that carries an hour's deadline when deadline is "true".
func sendPings(args []string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ping client:", err)
		os.Exit(1)
	}
	callers, err := strconv.Atoi(args[1])
	if err != nil {
		fail(err)
	}
	ctx := context.Background()
	if args[2] == "true" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Hour)
		defer cancel()
	}
	cn, err := DialContext(ctx, args[0])
	if err != nil {
		fail(err)
	}
	defer cn.Close()
	run := func(n int) {
		errs := make(chan error, callers)
		for c := 0; c < callers; c++ {
			go func() {
				var resp Response
				for i := 0; i < n; i++ {
					if err := cn.CallInto(ctx, &Request{Op: OpPing}, &resp); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for c := 0; c < callers; c++ {
			if err := <-errs; err != nil {
				fail(err)
			}
		}
	}
	run(100)
	fmt.Println("ready")
	in := bufio.NewReader(os.Stdin)
	if _, err := in.ReadString('\n'); err != nil {
		fail(err)
	}
	run(pingsPerCaller)
	fmt.Println("done")
	io.Copy(io.Discard, in)
}

// pingPeer is a running child: what it prints, and its stdin, whose close
// ends it.
type pingPeer struct {
	pid string
	out *bufio.Reader
	in  io.WriteCloser
	cmd *exec.Cmd
}

// startPingPeer starts a child in role with args; stop ends it.
func startPingPeer(t *testing.T, role string, args ...string) *pingPeer {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), pingPeerEnv+"="+role)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return &pingPeer{pid: strconv.Itoa(cmd.Process.Pid), out: bufio.NewReader(out), in: in, cmd: cmd}
}

func (p *pingPeer) stop() {
	p.in.Close()
	p.cmd.Wait()
}

// line is the next line the child prints.
func (p *pingPeer) line(t *testing.T) string {
	t.Helper()
	l, err := p.out.ReadString('\n')
	if err != nil {
		t.Fatalf("ping %s child: %v", p.pid, err)
	}
	return strings.TrimSuffix(l, "\n")
}

// pingsPerCaller is how many pings each caller of a crossings row sends
// once the conn is warm.
const pingsPerCaller = 2000

// raceEnabled reports whether the race detector instruments this build
// (race_on_test.go): it changes how threads idle, so the ping rows measure
// nothing then.
var raceEnabled bool

// pingCrossings is what one ping costs in read/write calls at each end when
// callers goroutines share one conn, each sending pingsPerCaller pings one
// after another, under a deadline when deadline is set: the run whose
// client figure is the median of three, as the way replies share wake-ups
// moves from run to run.
func pingCrossings(t *testing.T, callers int, deadline bool) (client, server float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("crossings measurement")
	}
	var runs [3][2]float64
	for i := range runs {
		runs[i][0], runs[i][1] = pingRun(t, callers, deadline)
	}
	sort.Slice(runs[:], func(i, j int) bool { return runs[i][0] < runs[j][0] })
	return runs[1][0], runs[1][1]
}

// pingRun is one measurement of pingCrossings, both ends in child
// processes whose counts bracket the measured pings.
func pingRun(t *testing.T, callers int, deadline bool) (client, server float64) {
	t.Helper()
	srv := startPingPeer(t, "server")
	defer srv.stop()
	cli := startPingPeer(t, "client", srv.line(t), strconv.Itoa(callers), strconv.FormatBool(deadline))
	defer cli.stop()
	if l := cli.line(t); l != "ready" {
		t.Fatalf("ping client printed %q, want ready", l)
	}
	c0, s0 := procCrossings(t, cli.pid), procCrossings(t, srv.pid)
	if _, err := io.WriteString(cli.in, "go\n"); err != nil {
		t.Fatal(err)
	}
	if l := cli.line(t); l != "done" {
		t.Fatalf("ping client printed %q, want done", l)
	}
	c1, s1 := procCrossings(t, cli.pid), procCrossings(t, srv.pid)
	pings := float64(callers * pingsPerCaller)
	return float64(c1-c0) / pings, float64(s1-s0) / pings
}

// TestPipelinedPingCrossings is the ledger's pipelined row: two and four
// callers share one conn, so more than one reply is owed at a time — the
// regime in which the client's reader must still notice a peer that closed
// behind a reply. Each end is counted on its own, and the budget is the
// client's: one write per ping, and a read per wake-up, which replies that
// arrive together share, so at most 2. The counts take in netpoller breaks
// (an eventfd write and read each), so a reader that trades reads for
// timers pays here too. A reader that read once more after every short
// read while a call was owed cost the client 2.02–2.07 and 1.78–1.98; this
// one, parking under a read deadline instead, costs 1.87–1.89 and
// 1.59–1.61 (three rows each, on two cores).
func TestPipelinedPingCrossings(t *testing.T) {
	for _, tc := range []struct {
		callers int
		budget  float64 // the client's calls per ping
	}{{2, 2.0}, {4, 1.75}} {
		client, server := pingCrossings(t, tc.callers, false)
		t.Logf("%.2f read/write calls per ping, %d callers on one conn (client %.2f, server %.2f)", client+server, tc.callers, client, server)
		if client > tc.budget {
			t.Errorf("with %d callers a ping costs the client %.2f read/write calls, want <= %.2f", tc.callers, client, tc.budget)
		}
	}
}

// TestDeadlinePingCrossings pins what a deadline on the caller's context
// costs a ping, against the same serial pings without one (2.00 at each
// end). The request carries the deadline, so the server runs the handler
// under a context.WithDeadline, and the caller's context holds one too:
// each is a runtime timer pending across the round trip, and a thread that
// idles while a timer is pending breaks the netpoller to sleep until it,
// an eventfd write and read each time. Measured 4.57–4.79 (client
// 2.35–2.46, server 2.13–2.38); the budget holds the cost where it is, it
// does not endorse it.
func TestDeadlinePingCrossings(t *testing.T) {
	pc, ps := pingCrossings(t, 1, false)
	client, server := pingCrossings(t, 1, true)
	t.Logf("%.2f read/write calls per ping carrying a deadline (client %.2f, server %.2f; %.2f without: %.2f, %.2f)", client+server, client, server, pc+ps, pc, ps)
	if client+server > 5.2 {
		t.Errorf("a ping carrying a deadline costs %.2f read/write calls, want <= 5.2", client+server)
	}
}
