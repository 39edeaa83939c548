package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
)

// server is one wccserve process the benchmark started.
type server struct {
	cmd     *exec.Cmd
	dataDir string
	base    string // http://127.0.0.1:port
	done    chan struct{}
	log     *logTail
	rssMB   float64 // VmHWM, read just before the process is stopped
	stopped bool
	peak    bool // its peak resident set counts toward rss_peak_mb
}

// logTail keeps the last lines of a server's log for error messages.
type logTail struct{ lines []string }

func (l *logTail) add(s string) {
	if len(l.lines) == 20 {
		l.lines = l.lines[1:]
	}
	l.lines = append(l.lines, s)
}

// startServer launches wccserve on a free loopback port over dataDir and
// returns once it is listening. The child dies with the benchmark
// process even if the benchmark is killed.
func (b *bench) startServer(dataDir string) (*server, error) {
	cmd := exec.Command(b.server, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	// Start and registration share the lock with stopAll's snapshot, so
	// a server either is stopped by it or never starts.
	b.mu.Lock()
	if b.stopping {
		b.mu.Unlock()
		return nil, fmt.Errorf("start wccserve: benchmark is stopping")
	}
	if err := cmd.Start(); err != nil {
		b.mu.Unlock()
		return nil, fmt.Errorf("start wccserve: %w", err)
	}
	s := &server{cmd: cmd, dataDir: dataDir, done: make(chan struct{}), log: &logTail{}}
	b.servers = append(b.servers, s)
	b.mu.Unlock()

	addr := make(chan string, 1) // one send, never blocks the reader
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.log.add(line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- strings.TrimSpace(rest)
				sent = true
			}
		}
		cmd.Wait() // after the pipe is drained, as exec requires
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("wccserve exited before listening: %s", strings.Join(s.log.lines, " | "))
	case <-time.After(60 * time.Second):
		b.stop(s)
		return nil, fmt.Errorf("wccserve did not listen within 60s")
	}
}

// stop reads the process's peak resident set, then shuts it down with
// SIGTERM (a graceful drain) and waits; a server that does not exit in
// 30s is killed. Either way stop returns only after the process ended.
func (b *bench) stop(s *server) {
	b.mu.Lock()
	claimed := !s.stopped
	s.stopped = true
	b.mu.Unlock()
	if !claimed {
		<-s.done // another goroutine is stopping it; wait for the exit
		return
	}
	s.rssMB = vmHWM(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// shutdown stops every server for good: none may start afterwards.
func (b *bench) shutdown() {
	b.mu.Lock()
	b.stopping = true
	b.mu.Unlock()
	b.stopAll()
}

// stopAll stops every server still running.
func (b *bench) stopAll() {
	b.mu.Lock()
	servers := append([]*server(nil), b.servers...)
	b.mu.Unlock()
	for _, s := range servers {
		b.stop(s)
	}
}

// peakRSS is the median peak resident set, in MB, of the servers the
// workload marked with peak.
func (b *bench) peakRSS() (float64, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var mbs []float64
	for _, s := range b.servers {
		if s.peak && s.stopped {
			mbs = append(mbs, s.rssMB)
		}
	}
	return medianOf(mbs), len(mbs)
}

// vmHWM is the peak resident set of a process in MB, from /proc.
func vmHWM(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// client is the benchmark's HTTP client: keep-alive connections, no
// compression, generous timeouts (a cold 55MB load takes seconds).
var client = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	Timeout:   120 * time.Second,
}

// do sends one request and decodes a 200 JSON response into out (when
// non-nil). Any other status is an error carrying the server's message.
func do(method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// load POSTs an edge list and returns the stored graph's ID.
func (s *server) load(name string, text []byte) (string, error) {
	var out struct {
		ID string `json:"id"`
		N  int    `json:"n"`
		M  int    `json:"m"`
	}
	if err := do("POST", s.base+"/v1/graphs?name="+name, text, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// solveReply is the labeling summary POST /v1/solve returns with wait.
type solveReply struct {
	Components int  `json:"components"`
	Rounds     int  `json:"rounds"`
	Cached     bool `json:"cached"`
}

// solve runs (or answers from cache) one solve and waits for it. An
// empty algo means the server's default.
func (s *server) solve(id, algo string, lambda float64) (solveReply, error) {
	body, _ := json.Marshal(map[string]any{"graph": id, "algo": algo, "lambda": lambda, "wait": true})
	var out solveReply
	err := do("POST", s.base+"/v1/solve", body, &out)
	return out, err
}

// queryPath is the same-component path for one graph and
// configuration, ending in "&"; callers append u and v.
func queryPath(id, algo string, lambda float64) string {
	p := "/v1/query/same-component?graph=" + id + "&"
	if algo != "" {
		p += "algo=" + algo + "&lambda=" + strconv.FormatFloat(lambda, 'g', -1, 64) + "&"
	}
	return p
}

// rawConn is a minimal HTTP/1.1 keep-alive client for the query storm:
// it writes a prebuilt GET and reads a Content-Length response, with
// none of net/http's per-request allocations, so on a small machine the
// load generator takes as little CPU from the server as it can.
type rawConn struct {
	conn net.Conn
	r    *bufio.Reader
	req  []byte
	body []byte
}

func dialRaw(base string) (*rawConn, error) {
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		return nil, err
	}
	return &rawConn{conn: conn, r: bufio.NewReaderSize(conn, 4096)}, nil
}

func (c *rawConn) Close() error { return c.conn.Close() }

// same asks one same-component query on path (which ends in "&") and
// returns the answer.
func (c *rawConn) same(path string, u, v graph.Vertex) (bool, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, "u="...)
	c.req = strconv.AppendInt(c.req, int64(u), 10)
	c.req = append(c.req, "&v="...)
	c.req = strconv.AppendInt(c.req, int64(v), 10)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	body, err := c.roundTrip("same-component")
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Contains(body, []byte(`"same":true`)):
		return true, nil
	case bytes.Contains(body, []byte(`"same":false`)):
		return false, nil
	}
	return false, fmt.Errorf("same-component: unexpected reply %q", body)
}

// post sends one POST with a prebuilt JSON body and returns the reply
// body, valid until the next request on c.
func (c *rawConn) post(path string, body []byte) ([]byte, error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	return c.roundTrip(path)
}

// roundTrip writes c.req and reads one Content-Length response; a
// status other than 200 is an error carrying the server's message.
func (c *rawConn) roundTrip(what string) ([]byte, error) {
	if _, err := c.conn.Write(c.req); err != nil {
		return nil, err
	}
	status, length := 0, -1
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if length < 0 {
				return nil, fmt.Errorf("%s: reply without Content-Length", what)
			}
			if cap(c.body) < length {
				c.body = make([]byte, length)
			}
			c.body = c.body[:length]
			if _, err := io.ReadFull(c.r, c.body); err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("%s: %d %s", what, status, bytes.TrimSpace(c.body))
			}
			return c.body, nil
		case status == 0:
			if _, rest, ok := bytes.Cut(line, []byte(" ")); ok && len(rest) >= 3 {
				status, _ = strconv.Atoi(string(rest[:3]))
			}
		default:
			if k, val, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
				length, _ = strconv.Atoi(string(bytes.TrimSpace(val)))
			}
		}
	}
}

// same asks one same-component query and returns the answer.
func (s *server) same(path string, u, v graph.Vertex) (bool, error) {
	var out struct {
		Same bool `json:"same"`
	}
	err := do("GET", s.base+path+"u="+strconv.Itoa(int(u))+"&v="+strconv.Itoa(int(v)), nil, &out)
	return out.Same, err
}
