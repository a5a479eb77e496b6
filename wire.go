package mycroft

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// wireClient is the client half of the wire for one daemon address. Each
// round trip runs on the calling goroutine: it takes a kept HTTP/1.1
// connection from a small idle pool (or dials one), writes the request
// through the connection's bufio.Writer and reads the answer with
// http.ReadResponse, so Content-Length and chunked bodies are framed as
// net/http frames them. No goroutine is started per connection or request.
//
// What it keeps of http.Client:
//   - timeout is one deadline on the connection covering dial, write and the
//     whole body, as http.Client.Timeout covers them;
//   - a connection goes back to the pool only when its body was read to EOF
//     and the answer did not ask to close; at most maxIdlePerPeer wait there;
//   - a pooled connection is checked before reuse (alive), because nothing
//     reads it while it is idle to notice the daemon closed it;
//   - a failed request is retried once, on a fresh connection, only where
//     net/http's Transport would retry it: on a reused connection, a GET that
//     failed before its status line, or any request whose write failed before
//     a byte was sent — so a POST is never sent twice;
//   - errors are *url.Error{Op, URL}, as http.Client returns them.
//
// It speaks plain http:// only and dials the daemon directly: no TLS, proxy,
// redirect or cookie.
type wireClient struct {
	base    string // the base URL, for errors
	addr    string // host:port to dial
	host    string // the Host header
	prefix  string // the base URL's path, written before every request path
	timeout time.Duration
	// err refuses every request: the base is not a plain http:// URL.
	err error

	mu   sync.Mutex
	idle []*wireConn // most recently used last
}

// maxIdlePerPeer is how many idle connections a wireClient keeps, the
// MaxIdleConnsPerHost of http.DefaultTransport.
const maxIdlePerPeer = 2

// newWireClient builds the client for base, a normalized base URL.
func newWireClient(base string, timeout time.Duration) *wireClient {
	w := &wireClient{base: base, timeout: timeout}
	u, err := url.Parse(base)
	switch {
	case base == "":
		w.err = errors.New("mycroft: no daemon address")
	case err != nil:
		w.err = err
	case u.Scheme != "http":
		w.err = fmt.Errorf("mycroft: %s: only http:// daemon addresses are supported", base)
	case u.Host == "" || !validTarget(u.Host):
		w.err = fmt.Errorf("mycroft: %s: no valid host", base)
	default:
		w.host, w.addr, w.prefix = u.Host, u.Host, u.EscapedPath()
		if u.Port() == "" {
			w.addr = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	return w
}

// validTarget reports whether s may be written into a request line or a
// header as it is: no byte at or below 0x20 (controls and the space, which
// would split the line or start a header) and no DEL.
func validTarget(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// do is one round trip: in as a JSON body, or none when nil, and the JSON
// answer decoded into out.
func (w *wireClient) do(method, path string, in, out any) error {
	resp, err := w.send(method, path, in)
	if err != nil {
		return err
	}
	return decode(path, resp, out)
}

// send writes one request and reads the answer's status line and header. The
// caller reads the body and closes it, which returns the connection to the
// pool or closes it.
func (w *wireClient) send(method, path string, in any) (*http.Response, error) {
	if w.err != nil {
		return nil, w.fail(method, path, w.err)
	}
	if !validTarget(path) {
		return nil, w.fail(method, path, fmt.Errorf("mycroft: request target %q holds a control byte or a space", path))
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(w.timeout)
	for retried := false; ; retried = true {
		wc, reused, err := w.conn(deadline, retried)
		if err != nil {
			return nil, w.fail(method, path, err)
		}
		resp, sent, err := wc.roundTrip(method, path, body)
		if err == nil {
			return resp, nil
		}
		wc.nc.Close()
		if !reused || retried || isTimeout(err) || (sent && method != http.MethodGet) {
			return nil, w.fail(method, path, err)
		}
	}
}

// fail wraps err the way http.Client does.
func (w *wireClient) fail(method, path string, err error) error {
	return &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: w.base + path, Err: err}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// conn returns a live pooled connection, unless fresh, or dials a new one;
// either way with deadline set. reused reports a pooled one.
func (w *wireClient) conn(deadline time.Time, fresh bool) (wc *wireConn, reused bool, err error) {
	for !fresh {
		if wc = w.takeIdle(); wc == nil {
			break
		}
		if wc.alive() {
			return wc, true, wc.nc.SetDeadline(deadline)
		}
		wc.nc.Close()
	}
	d := net.Dialer{Deadline: deadline}
	nc, err := d.Dial("tcp", w.addr)
	if err != nil {
		return nil, false, err
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, false, err
	}
	return newWireConn(w, nc), false, nil
}

func (w *wireClient) takeIdle() *wireConn {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.idle)
	if n == 0 {
		return nil
	}
	wc := w.idle[n-1]
	w.idle[n-1] = nil
	w.idle = w.idle[:n-1]
	return wc
}

func (w *wireClient) putIdle(wc *wireConn) {
	w.mu.Lock()
	if len(w.idle) < maxIdlePerPeer {
		w.idle, wc = append(w.idle, wc), nil
	}
	w.mu.Unlock()
	if wc != nil {
		wc.nc.Close()
	}
}

// closeIdle closes every idle connection. One in use closes, or joins the
// pool, when its answer is done.
func (w *wireClient) closeIdle() {
	w.mu.Lock()
	idle := w.idle
	w.idle = nil
	w.mu.Unlock()
	for _, wc := range idle {
		wc.nc.Close()
	}
}

// wireConn is one kept connection and its buffers.
type wireConn struct {
	w  *wireClient
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// written counts the bytes the socket accepted, so a failed write can
	// tell whether any of the request left.
	written int64
	peeker
	length [20]byte // Content-Length digits
	body   wireBody // the answer in flight
}

func newWireConn(w *wireClient, nc net.Conn) *wireConn {
	wc := &wireConn{w: w, nc: nc, br: bufio.NewReader(nc)}
	wc.bw = bufio.NewWriter(wc)
	wc.peeker.init(nc)
	return wc
}

// Write is the socket as the request writer sees it: it counts the bytes the
// socket accepted.
func (wc *wireConn) Write(p []byte) (int, error) {
	n, err := wc.nc.Write(p)
	wc.written += int64(n)
	return n, err
}

// roundTrip writes the request and reads the answer's head. sent reports
// whether any byte of the request reached the socket.
func (wc *wireConn) roundTrip(method, path string, body []byte) (resp *http.Response, sent bool, err error) {
	before := wc.written
	w, bw := wc.w, wc.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(w.prefix)
	bw.WriteString(path)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(w.host)
	bw.WriteString("\r\n")
	if body != nil {
		bw.WriteString("Content-Type: application/json\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(wc.length[:0], int64(len(body)), 10))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(body)
	if err := bw.Flush(); err != nil {
		return nil, wc.written > before, err
	}
	if resp, err = http.ReadResponse(wc.br, nil); err != nil {
		return nil, true, err
	}
	wc.body = wireBody{wc: wc, rc: resp.Body, keep: !resp.Close}
	resp.Body = &wc.body
	return resp, true, nil
}

// wireBody is an answer's body. Closing it returns the connection to the pool
// when the body was read to EOF, the answer let the connection stay open and
// nothing past the answer was read; otherwise the connection is closed, and
// an unread body is never drained.
type wireBody struct {
	wc   *wireConn
	rc   io.ReadCloser
	keep bool
	eof  bool
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *wireBody) Close() error {
	if b.rc == nil {
		return nil
	}
	rc, wc := b.rc, b.wc
	b.rc = nil
	if b.eof && b.keep && wc.br.Buffered() == 0 {
		rc.Close() // a body read to EOF closes without reading
		wc.w.putIdle(wc)
		return nil
	}
	return wc.nc.Close()
}
