package mycroft

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// wireClient is the client half of the wire for one daemon address. Each
// round trip runs on the calling goroutine: it takes a kept HTTP/1.1
// connection from a small idle pool (or dials one), writes the request
// through the connection's bufio.Writer and reads the answer's head itself
// (readHead). It frames the body by Content-Length or chunked coding as
// net/http frames it, and builds no header map and no http.Response. No
// goroutine is started per connection or request.
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
	b, err := w.send(method, path, in)
	if err != nil {
		return err
	}
	return decode(path, b, out)
}

// send writes one request and reads the answer's status line and header. The
// caller reads the body and closes it, which returns the connection to the
// pool or closes it. The body lives in the connection, so it is valid until
// it is closed.
func (w *wireClient) send(method, path string, in any) (*wireBody, error) {
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
		b, sent, err := wc.roundTrip(method, path, body)
		if err == nil {
			return b, nil
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

// wireConn is one kept connection, its buffers and the answer in flight.
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
func (wc *wireConn) roundTrip(method, path string, body []byte) (b *wireBody, sent bool, err error) {
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
	if err := wc.readHead(); err != nil {
		return nil, true, err
	}
	return &wc.body, true, nil
}

// readHead reads the answer's status line and header lines into wc.body. It
// acts on Content-Length, Transfer-Encoding and Connection as
// http.ReadResponse does and skips every other header after checking its
// bytes, so a head it accepts http.ReadResponse accepts too, with the same
// status, length and close flag (FuzzWireHead). It is stricter: it refuses a
// 1xx answer, an HTTP version other than 1.0 and 1.1, a folded header line,
// Transfer-Encoding beside Content-Length or on HTTP/1.0, and a line longer
// than the read buffer.
func (wc *wireConn) readHead() error {
	line, err := wc.headLine()
	if err != nil {
		return err
	}
	var http10 bool
	switch {
	case bytes.HasPrefix(line, []byte("HTTP/1.1 ")):
	case bytes.HasPrefix(line, []byte("HTTP/1.0 ")):
		http10 = true
	default:
		return headError("malformed status line", line)
	}
	code := bytes.TrimLeft(line[len("HTTP/1.1 "):], " ")
	if len(code) < 3 || len(code) > 3 && code[3] != ' ' {
		return headError("malformed status code", line)
	}
	status := 0
	for _, c := range code[:3] {
		if c < '0' || c > '9' {
			return headError("malformed status code", line)
		}
		status = status*10 + int(c-'0')
	}
	if status < 200 {
		return headError("interim or invalid status", line)
	}

	var (
		length    = int64(-1)
		digits    [18]byte // the first Content-Length, to compare a repeat with
		nDigits   int
		chunked   bool
		closing   bool
		keepAlive bool
	)
	for {
		if line, err = wc.headLine(); err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return headError("folded header line", line)
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return headError("header line with no colon or an empty name", line)
		}
		key, value := line[:colon], line[colon+1:]
		for _, c := range key {
			if !tokenByte(c) {
				return headError("malformed header field name", line)
			}
		}
		for _, c := range value {
			if c < ' ' && c != '\t' || c == 0x7f {
				return headError("control byte in a header value", line)
			}
		}
		value = trimOWS(value)
		switch {
		case equalFold(key, "Content-Length"):
			if nDigits > 0 {
				if string(value) != string(digits[:nDigits]) {
					return headError("a second, different Content-Length", line)
				}
				continue
			}
			if len(value) == 0 || len(value) > len(digits) {
				return headError("malformed Content-Length", line)
			}
			length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return headError("malformed Content-Length", line)
				}
				length = length*10 + int64(c-'0')
			}
			nDigits = copy(digits[:], value)
		case equalFold(key, "Transfer-Encoding"):
			if chunked || !equalFold(value, "chunked") {
				return headError("unsupported Transfer-Encoding", line)
			}
			chunked = true
		case equalFold(key, "Connection"):
			closing = closing || hasToken(value, "close")
			keepAlive = keepAlive || hasToken(value, "keep-alive")
		}
	}
	if chunked && (http10 || nDigits > 0) {
		return errors.New("mycroft: answer head: Transfer-Encoding with Content-Length or on HTTP/1.0")
	}
	if http10 {
		closing = closing || !keepAlive
	}
	b := &wc.body
	*b = wireBody{wc: wc, status: status, length: length}
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified:
		b.length = 0
	case chunked:
		b.chunked = httputil.NewChunkedReader(wc.br)
	case length < 0:
		closing = true // the body ends when the connection does
	}
	b.rest, b.keep, b.open = b.length, !closing, true
	return nil
}

// headLine reads one line of the head, without its line end.
func (wc *wireConn) headLine() ([]byte, error) {
	line, err := wc.br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("mycroft: answer head line longer than %d bytes", wc.br.Size())
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

func headError(what string, line []byte) error {
	return fmt.Errorf("mycroft: answer head: %s: %q", what, line)
}

// equalFold reports whether b is s, ignoring ASCII case.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if lowerASCII(c) != lowerASCII(s[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// hasToken reports whether the comma-separated list v holds token, as
// net/http reads a Connection header.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		item := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			item, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if equalFold(trimOWS(item), token) {
			return true
		}
	}
	return false
}

// trimOWS cuts the spaces and tabs around b.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// tokenByte reports whether c may appear in a header field name (RFC 7230's
// tchar).
func tokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// errTooLarge is a body that passed the limit its reader set.
var errTooLarge = errors.New("mycroft: answer body over its limit")

// wireBody is an answer's status and body, framed by its head: a counted
// Content-Length body, a chunked one, or one that runs to the end of the
// connection. Closing it returns the connection to the pool when the body
// was read to EOF, the answer let the connection stay open and nothing past
// the answer was read; otherwise the connection is closed, and an unread
// body is never drained.
type wireBody struct {
	wc     *wireConn
	status int
	// length is the declared Content-Length; -1 when chunked or unknown.
	length int64
	// rest is what is left of a Content-Length body; -1 for the others.
	rest    int64
	chunked io.Reader
	// max, when above 0, is the most body bytes a reader takes; read counts
	// them.
	max, read int64
	keep      bool
	eof       bool
	open      bool
}

func (b *wireBody) Read(p []byte) (n int, err error) {
	switch {
	case b.eof:
		return 0, io.EOF
	case b.rest == 0:
		b.eof = true
		return 0, io.EOF
	case b.rest > 0:
		if int64(len(p)) > b.rest {
			p = p[:b.rest]
		}
		n, err = b.wc.br.Read(p)
		b.rest -= int64(n)
		switch {
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		case err == nil && b.rest == 0:
			err = io.EOF
		}
	case b.chunked != nil:
		if n, err = b.chunked.Read(p); err == io.EOF {
			if terr := b.readTrailer(); terr != nil {
				err = terr
			}
		}
	default:
		n, err = b.wc.br.Read(p)
	}
	if err == io.EOF {
		b.eof = true
	}
	if b.max > 0 {
		if b.read += int64(n); b.read > b.max {
			return 0, errTooLarge
		}
	}
	return n, err
}

// readTrailer reads what follows a chunked body's last chunk, as net/http
// reads it: an empty line, or trailer fields, which are dropped.
func (b *wireBody) readTrailer() error {
	br := b.wc.br
	buf, err := br.Peek(2)
	switch {
	case string(buf) == "\r\n":
		br.Discard(2)
		return nil
	case len(buf) < 2:
		return errTrailerEOF
	case err != nil:
		return err
	}
	// Like net/http, refuse a trailer that does not end within the buffer.
	for n := 4; ; n++ {
		buf, err := br.Peek(n)
		if bytes.HasSuffix(buf, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errors.New("mycroft: answer trailer longer than the read buffer")
		}
	}
	if _, err := textproto.NewReader(br).ReadMIMEHeader(); err != nil {
		if err == io.EOF {
			return errTrailerEOF
		}
		return err
	}
	return nil
}

var errTrailerEOF = errors.New("mycroft: unexpected EOF reading the answer trailer")

func (b *wireBody) Close() error {
	if !b.open {
		return nil
	}
	b.open = false
	wc := b.wc
	if b.eof && b.keep && wc.br.Buffered() == 0 {
		wc.w.putIdle(wc)
		return nil
	}
	return wc.nc.Close()
}
