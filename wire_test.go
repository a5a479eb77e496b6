package mycroft

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mycroft/internal/api"
)

// idleConns is how many connections w holds in its pool.
func idleConns(w *wireClient) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.idle)
}

// countPosts wraps h, counting the POSTs to paths ending in suffix.
func countPosts(h http.Handler, suffix string, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, suffix) {
			n.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// TestWireStaleConnection: a pooled connection the daemon closed while it
// sat idle — by its idle timeout, or by closing its client connections — is
// noticed before reuse, so the next GET and the next POST both succeed on a
// fresh connection and the POST's handler runs exactly once.
func TestWireStaleConnection(t *testing.T) {
	for _, how := range []string{"idle timeout", "server closes"} {
		t.Run(how, func(t *testing.T) {
			var posts atomic.Int64
			ts := httptest.NewUnstartedServer(countPosts(NewServer(faultedService(t)).Handler(), "/logs", &posts))
			if how == "idle timeout" {
				ts.Config.IdleTimeout = 50 * time.Millisecond
			}
			ts.Start()
			defer ts.Close()
			rc, err := Dial(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			idleOut := func() {
				if how == "idle timeout" {
					time.Sleep(200 * time.Millisecond)
				} else {
					ts.CloseClientConnections()
					time.Sleep(20 * time.Millisecond)
				}
			}
			idleOut()
			if n := idleConns(rc.wire); n != 1 {
				t.Fatalf("%d idle connections after the ping, want the one it used", n)
			}
			if _, err := rc.Health(); err != nil {
				t.Fatalf("GET over a connection the daemon closed: %v", err)
			}
			idleOut()
			if _, err := rc.IngestLogs("trace", []LogLine{{Rank: 1, Text: "NCCL WARN link flap"}}); err != nil {
				t.Fatalf("POST over a connection the daemon closed: %v", err)
			}
			if n := posts.Load(); n != 1 {
				t.Fatalf("the logs handler ran %d times, want once", n)
			}
		})
	}
}

// TestWirePoolKeepsOnlyFinishedConnections: a connection joins the pool only
// once its body was read to EOF and the answer let it stay open. A
// `Connection: close` answer and a body closed before its end (as a body
// over maxResponse is) leave nothing in the pool, and the next request dials.
func TestWirePoolKeepsOnlyFinishedConnections(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
		case "/long":
			io.WriteString(w, `{"pad":"`+strings.Repeat("x", 1<<20)+`"}`)
			return
		}
		io.WriteString(w, `{}`)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	w := newWireClient(ts.URL, time.Minute)
	var out struct{}
	step := func(path string, wantIdle int) {
		t.Helper()
		if err := w.do(http.MethodGet, path, nil, &out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if n := idleConns(w); n != wantIdle {
			t.Fatalf("after GET %s: %d idle connections, want %d", path, n, wantIdle)
		}
	}
	step("/ok", 1)
	step("/ok", 1)
	step("/close", 0)
	step("/ok", 1)

	b, err := w.send(http.MethodGet, "/long", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if n := idleConns(w); n != 0 {
		t.Fatalf("a body closed before its end left %d idle connections", n)
	}
	step("/ok", 1)
	if n := conns.Load(); n != 3 {
		t.Fatalf("the server accepted %d connections, want 3: the first, one after the close answer, one after the cut body", n)
	}
}

// TestWireCloseClosesIdle: after Close every connection the client kept
// idle reaches http.StateClosed on the server.
func TestWireCloseClosesIdle(t *testing.T) {
	var (
		mu     sync.Mutex
		states = map[net.Conn]http.ConnState{}
	)
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	daemon := NewServer(faultedService(t)).Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.Prefix+"/health" {
			arrived <- struct{}{}
			<-release
		}
		daemon.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		states[c] = s
		mu.Unlock()
	}
	ts.Start()
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Two health calls in flight at once hold two connections, which both
	// join the pool when they finish.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := rc.Health()
			errs <- err
		}()
	}
	<-arrived
	<-arrived
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := idleConns(rc.wire); n != 2 {
		t.Fatalf("%d idle connections, want 2", n)
	}
	rc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		open := 0
		for _, s := range states {
			if s != http.StateClosed {
				open++
			}
		}
		n := len(states)
		mu.Unlock()
		if open == 0 && n == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d server connections not closed after Close", open, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireRequestTarget: a job id holding CR LF, a space or DEL rides
// escaped, so it can neither add a header nor split the request line; and a
// request target holding any byte at or below 0x20 or DEL is refused before
// anything is sent.
func TestWireRequestTarget(t *testing.T) {
	var requests atomic.Int64
	daemon := NewServer(faultedService(t)).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if len(r.Header.Values("X-Injected")) > 0 || strings.ContainsAny(r.RequestURI, "\r\n \x7f") {
			t.Errorf("request %q arrived with an injected header or a split line: %v", r.RequestURI, r.Header)
		}
		daemon.ServeHTTP(w, r)
	}))
	defer ts.Close()
	rc, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for _, job := range []JobID{"a\r\nX-Injected: 1", "a b", "a\x7fb"} {
		before := requests.Load()
		_, err1 := rc.ChannelStats(job)
		_, err2 := rc.QueryTrace(TraceQuery{Job: job})
		err3 := rc.FetchRecord(job, io.Discard)
		for _, err := range []error{err1, err2, err3} {
			if err == nil || isTransportErr(err) {
				t.Errorf("job %q: %v, want the daemon's refusal", job, err)
			}
		}
		if n := requests.Load() - before; n != 3 {
			t.Errorf("job %q: the daemon saw %d requests for 3 calls", job, n)
		}
	}
	before := requests.Load()
	for _, path := range []string{"/v1/jobs/a\r\nX-Injected: 1/record", "/v1/jobs/a b/record", "/v1/jobs/a\x7f/record", "/v1/jobs/a\x00/record"} {
		if err := rc.do(http.MethodGet, path, nil, &struct{}{}); err == nil || isTransportErr(err) || !strings.Contains(err.Error(), "request target") {
			t.Errorf("raw target %q: %v, want a refusal", path, err)
		}
	}
	if n := requests.Load() - before; n != 0 {
		t.Fatalf("%d refused targets reached the daemon", n)
	}
}

// TestWireStoppedDaemon: a daemon that stops while the client holds a
// pooled connection to it answers the next call with an error
// isTransportErr accepts, which is what Dial's retries and a cluster's
// failover act on.
func TestWireStoppedDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: NewServer(faultedService(t)).Handler()}
	go hs.Serve(ln)
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Health(); err != nil {
		t.Fatal(err)
	}
	hs.Close()
	_, err = rc.Health()
	var ue *url.Error
	if !isTransportErr(err) || !errors.As(err, &ue) || ue.Op != "Get" {
		t.Fatalf("call to a stopped daemon: %v, want a transport error in a *url.Error", err)
	}
}

// TestWireRetryRule: a reused connection the daemon drops after reading a
// request is retried once on a fresh one for a GET, and never for a POST,
// whose handler ran: the POST fails with a transport error.
func TestWireRetryRule(t *testing.T) {
	var seen, posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		// Every second request is read and then dropped unanswered.
		if seen.Add(1)%2 == 0 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		io.WriteString(w, `{}`)
	}))
	defer ts.Close()
	w := newWireClient(ts.URL, time.Minute)
	var out struct{}
	if err := w.do(http.MethodGet, "/a", nil, &out); err != nil {
		t.Fatal(err)
	}
	// Request 2 is dropped on the pooled connection and retried as request 3.
	if err := w.do(http.MethodGet, "/b", nil, &out); err != nil {
		t.Fatalf("GET dropped on a reused connection was not retried: %v", err)
	}
	if n := seen.Load(); n != 3 {
		t.Fatalf("the server saw %d requests, want 3", n)
	}
	// Request 4 is a POST on the pooled connection, dropped and not retried.
	err := w.do(http.MethodPost, "/c", struct{}{}, &out)
	if !isTransportErr(err) {
		t.Fatalf("dropped POST: %v, want a transport error", err)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("the POST reached the server %d times, want once", n)
	}
}

// TestWireIdleCheckAllocatesNothing: checking a pooled connection before
// reuse costs no malloc.
func TestWireIdleCheckAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count taken under the race detector is not the program's")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, `{}`) }))
	defer ts.Close()
	w := newWireClient(ts.URL, time.Minute)
	if err := w.do(http.MethodGet, "/", nil, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	wc := w.takeIdle()
	defer wc.nc.Close()
	if !wc.alive() {
		t.Fatal("an open idle connection reads as closed")
	}
	if n := testing.AllocsPerRun(100, func() { wc.alive() }); n != 0 {
		t.Fatalf("the idle check allocates %.1f times", n)
	}
}

// TestWireRefusesOtherSchemes: only plain http:// daemon addresses are
// spoken to, with an error naming the address.
func TestWireRefusesOtherSchemes(t *testing.T) {
	if _, err := Dial("https://127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "only http://") {
		t.Fatalf("Dial https: %v", err)
	}
	err := NewServer(NewService(ServiceOptions{})).EnableCluster(ClusterConfig{
		ID: "c", Self: "p1", SelfAddr: "127.0.0.1:1",
		Peers: map[string]string{"p1": "127.0.0.1:1", "p2": "https://127.0.0.1:2"},
	})
	if err == nil || !strings.Contains(err.Error(), "only http://") {
		t.Fatalf("EnableCluster with an https peer: %v", err)
	}
}

// TestServeLockWait: a read issued while the server lock is held, as Advance
// holds it, records its wait; /metrics shows both histograms by operation.
func TestServeLockWait(t *testing.T) {
	srv := NewServer(faultedService(t))
	h := srv.Handler()
	srv.mu.Lock() // what Advance holds while the engine runs
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.Prefix+"/health", nil))
		done <- rec.Code
	}()
	const held = 30 * time.Millisecond
	time.Sleep(held)
	srv.mu.Unlock()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("health answered %d", code)
	}
	lt := srv.lockTimes["Health"]
	if lt.wait.Count() != 1 || lt.wait.Sum() < held.Seconds()/2 {
		t.Fatalf("lock wait: %d observations summing %gs, want one of about %v", lt.wait.Count(), lt.wait.Sum(), held)
	}
	if lt.hold.Count() != 1 || lt.hold.Sum() <= 0 {
		t.Fatalf("lock hold: %d observations summing %gs, want one above 0", lt.hold.Count(), lt.hold.Sum())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`mycroft_serve_lock_wait_seconds_count{op="Health"} 1`,
		`mycroft_serve_lock_hold_seconds_count{op="Health"} 1`,
		`mycroft_serve_lock_wait_seconds_count{op="QueryTrace"} 0`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

// TestServeLockTimingAllocatesNothing: observing the lock's wait and hold
// adds no malloc to a served request.
func TestServeLockTimingAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count taken under the race detector is not the program's")
	}
	srv := NewServer(faultedService(t))
	for _, o := range opTable {
		name := o.clientMethod()
		if n := testing.AllocsPerRun(100, func() { srv.lock(name).unlock() }); n != 0 {
			t.Errorf("%s: timing the server lock allocates %.1f times", name, n)
		}
	}
	if c := srv.lockTimes["Health"].wait.Count(); c == 0 {
		t.Fatal("the timed locks observed nothing")
	}
}

// capture sends one raw request asking to close to h and returns every byte
// of the answer, head and body, as net/http's server writes them.
func capture(t testing.TB, h http.Handler, request string) []byte {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, request); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzWireHead: whenever readHead accepts an answer's head, http.ReadResponse
// accepts it too, with the same status, length (-1 for chunked or unknown)
// and close flag, and both read the same body bytes to EOF and stop at the
// same byte, or both fail.
func FuzzWireHead(f *testing.F) {
	daemon := NewServer(NewService(ServiceOptions{})).Handler()
	get := func(path string) string {
		return "GET " + path + " HTTP/1.1\r\nHost: d\r\nConnection: close\r\n\r\n"
	}
	f.Add(capture(f, daemon, get(api.Prefix+"/ping")))                                        // a JSON page
	f.Add(capture(f, daemon, get(api.Prefix+"/jobs/nope/channels")))                          // a Fail answer
	f.Add(capture(f, daemon, get(api.Prefix+"/jobs/"+strings.Repeat("n", 3000)+"/channels"))) // a Fail answer over 2 KiB, chunked
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n{\"a\r\n4\r\n\":1}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\nX-Trailer: 1\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\n\r\nto the end",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: Upgrade, CLOSE\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 02\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("x", 5000) + "\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 1\n\nx",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, hsrc := bytes.NewReader(data), bytes.NewReader(data)
		wc := &wireConn{br: bufio.NewReader(src)}
		if wc.readHead() != nil {
			return
		}
		hr := bufio.NewReader(hsrc)
		resp, err := http.ReadResponse(hr, nil)
		if err != nil {
			t.Fatalf("readHead accepted a head http.ReadResponse refuses: %v", err)
		}
		b := &wc.body
		if b.status != resp.StatusCode || b.length != resp.ContentLength || !b.keep != resp.Close {
			t.Fatalf("readHead: status %d, length %d, close %v; http.ReadResponse: %d, %d, %v",
				b.status, b.length, !b.keep, resp.StatusCode, resp.ContentLength, resp.Close)
		}
		got, gotErr := io.ReadAll(b)
		want, wantErr := io.ReadAll(resp.Body)
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("body %q (%v), net/http reads %q (%v)", got, gotErr, want, wantErr)
		}
		// What follows a finished answer is the next one, so both must stop
		// at the same byte: a trailer left unread would poison a pooled
		// connection.
		left, hleft := src.Len()+wc.br.Buffered(), hsrc.Len()+hr.Buffered()
		if gotErr == nil && left != hleft {
			t.Fatalf("%d bytes left past the answer, net/http leaves %d", left, hleft)
		}
	})
}

// TestWireAnswerAllocatesNothing: on a pooled connection, sending a request
// without a body, reading a Content-Length answer to EOF and closing it costs
// no malloc. The server is a bare listener writing one canned answer per
// request, so it allocates nothing either.
func TestWireAnswerAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("a malloc count taken under the race detector is not the program's")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	answer := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Mon, 19 Oct 2026 16:00:00 GMT\r\nContent-Length: 13\r\n\r\n{\"status\":1}\n")
	end := []byte("\r\n\r\n")
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [4096]byte
		have := 0
		for have < len(buf) {
			n, err := c.Read(buf[have:])
			if err != nil {
				return
			}
			have += n
			for i := bytes.Index(buf[:have], end); i >= 0; i = bytes.Index(buf[:have], end) {
				have = copy(buf[:], buf[i+len(end):have])
				c.Write(answer)
			}
		}
	}()
	w := newWireClient("http://"+ln.Addr().String(), time.Minute)
	var p [8]byte
	var total int
	round := func() {
		b, err := w.send(http.MethodGet, api.Prefix+"/health", nil)
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			var n int
			n, err = b.Read(p[:])
			total += n
		}
		if err != io.EOF {
			t.Fatal(err)
		}
		b.Close()
	}
	round() // dials the connection the rounds below reuse
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a pooled round trip allocates %.1f times", n)
	}
	if total != 13*102 || idleConns(w) != 1 {
		t.Fatalf("read %d body bytes over %d pooled connections, want %d over 1", total, idleConns(w), 13*102)
	}
}
