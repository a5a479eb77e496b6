package mycroft

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"syscall"
	"time"

	"mycroft/internal/api"
)

// ErrUnreachable marks a dial (or cluster route) that exhausted its
// connection retries: every attempt was refused, reset or timed out at the
// transport layer. Test with errors.Is.
var ErrUnreachable = errors.New("daemon unreachable")

// ErrSubscriptionLost marks a subscription whose server-side half is gone
// for good — typically the daemon restarted and wiped its subscription
// table. The stream closes with this as its Err; resubscribe to continue.
// Test with errors.Is.
var ErrSubscriptionLost = errors.New("subscription lost")

// RemoteClient is the Client implementation that speaks the /v1 wire
// protocol to a mycroft-serve daemon. Every operation encodes its request,
// crosses HTTP and decodes the answer into the method's own result type
// (remoteCall in ops.go, driven by the operation table), so code written
// against Client runs unchanged in-process or remote. Subscriptions are fed by a
// background long-poller into the same *Stream type the in-process Service
// hands out; transport failures close the stream and surface via
// Stream.Err.
type RemoteClient struct {
	base string
	hc   *http.Client

	// serverID and serverStarted are captured from the dial-time ping so
	// callers can log what they connected to.
	serverID      string
	serverStarted time.Time
}

// DialOption tunes Dial's connection-retry behavior.
type DialOption func(*dialConfig)

type dialConfig struct {
	attempts  int
	baseDelay time.Duration
	maxDelay  time.Duration
}

// DialAttempts sets how many connection attempts Dial makes before giving
// up with ErrUnreachable (default 4; minimum 1). Only refused/reset/timeout
// transport errors are retried — a daemon that answers with the wrong wire
// version fails immediately.
func DialAttempts(n int) DialOption {
	return func(c *dialConfig) {
		if n >= 1 {
			c.attempts = n
		}
	}
}

// normalizeBase turns "host:port" or an http URL into a canonical base URL.
func normalizeBase(addr string) string {
	base := addr
	if base == "" {
		return ""
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/")
}

// isTransportErr reports whether err is a connection-layer failure
// (refused, reset, dial timeout) rather than an application answer —
// exactly the class worth retrying or failing over.
func isTransportErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	// A peer dying mid-request surfaces as a bare EOF on the reused
	// connection — as much "unreachable" as a refused dial.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ue *url.Error
	if errors.As(err, &ue) && ue.Timeout() {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// Dial connects to a daemon at addr ("host:port" or a full http:// URL),
// verifying the wire-protocol version via /v1/ping. Refused or reset
// connections are retried with capped exponential backoff (a daemon that is
// still binding its port wins the race within a few attempts); exhausting
// the retries returns an error wrapping ErrUnreachable.
func Dial(addr string, opts ...DialOption) (*RemoteClient, error) {
	cfg := dialConfig{attempts: 4, baseDelay: 50 * time.Millisecond, maxDelay: time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	c := &RemoteClient{base: normalizeBase(addr), hc: &http.Client{Timeout: 60 * time.Second}}
	var ping api.PingResponse
	var err error
	delay := cfg.baseDelay
	for attempt := 1; ; attempt++ {
		err = c.do(http.MethodGet, api.Prefix+"/ping", nil, &ping)
		if err == nil {
			break
		}
		if !isTransportErr(err) || attempt >= cfg.attempts {
			if isTransportErr(err) {
				return nil, fmt.Errorf("mycroft: dialing %s (%d attempts): %w: %v", addr, attempt, ErrUnreachable, err)
			}
			return nil, fmt.Errorf("mycroft: dialing %s: %w", addr, err)
		}
		time.Sleep(delay)
		if delay *= 2; delay > cfg.maxDelay {
			delay = cfg.maxDelay
		}
	}
	if ping.Version != api.Version {
		return nil, fmt.Errorf("mycroft: daemon at %s speaks wire version %d, this client speaks %d", addr, ping.Version, api.Version)
	}
	c.serverID = ping.Server
	if ping.StartedUnixNs != 0 {
		c.serverStarted = time.Unix(0, ping.StartedUnixNs)
	}
	return c, nil
}

// ServerInfo reports the daemon identity and wall-clock start time captured
// at dial; identity is "" (and start zero) against a daemon predating them.
func (c *RemoteClient) ServerInfo() (string, time.Time) {
	return c.serverID, c.serverStarted
}

// Now returns the daemon's current virtual time.
func (c *RemoteClient) Now() (time.Duration, error) {
	var ping api.PingResponse
	if err := c.do(http.MethodGet, api.Prefix+"/ping", nil, &ping); err != nil {
		return 0, err
	}
	return time.Duration(ping.NowNs), nil
}

// resolveRemoteJob fills an empty job selector against the daemon's job
// list, mirroring the in-process "sole hosted job" rule.
func (c *RemoteClient) resolveRemoteJob(job JobID) (JobID, error) {
	if job != "" {
		return job, nil
	}
	res, err := c.ListJobs()
	if err != nil {
		return "", err
	}
	if len(res.Jobs) != 1 {
		return "", fmt.Errorf("mycroft: query needs a Job id (daemon hosts %d jobs)", len(res.Jobs))
	}
	return res.Jobs[0].ID, nil
}

// FetchRecord streams a job's incident artifact snapshot from the daemon
// into w. The bytes are a valid (possibly footer-less) artifact as of the
// daemon's current virtual instant, ready for mycroft.Replay. Unlike query
// responses, the download is unbounded — artifacts from long runs can exceed
// the JSON response cap by design.
func (c *RemoteClient) FetchRecord(job JobID, w io.Writer) error {
	path := jobPath("/jobs/{id}/record", job)
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var we api.ErrorResponse
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			return fmt.Errorf("%s", we.Error)
		}
		return fmt.Errorf("mycroft: %s: HTTP %d", path, resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Subscribe creates a server-side subscription and returns a Stream fed by
// a background long-poller. Creation failures come back as an
// already-closed stream whose Err explains why — so the streaming-cursor
// call shape stays identical to the in-process Service.
func (c *RemoteClient) Subscribe(f EventFilter) *Stream {
	st := newStream(nil, f)
	var resp api.SubscribeResponse
	if err := c.do(http.MethodPost, api.Prefix+"/subscribe", subscribeRequest{Filter: f}, &resp); err != nil {
		st.fail(err)
		return st
	}
	st.onClose = func() { c.unsubscribe(resp.ID) }
	go c.pollLoop(resp.ID, st)
	return st
}

// pollLoop drains the server-side subscription into the local stream until
// either side closes.
func (c *RemoteClient) pollLoop(id string, st *Stream) {
	for {
		if st.isClosed() {
			return
		}
		var resp api.PollResponse
		if err := c.do(http.MethodPost, api.Prefix+"/poll", api.PollRequest{ID: id, TimeoutMs: 1000, Max: 256}, &resp); err != nil {
			st.fail(err)
			return
		}
		for _, e := range resp.Events {
			st.deliver(e)
		}
		st.setRemoteDropped(resp.Dropped)
		if resp.Lost {
			// The server does not know this ID at all — a restart wiped it.
			// Unlike a clean Closed there is nothing left to drain; surface
			// the typed error so callers know to resubscribe.
			st.fail(fmt.Errorf("mycroft: subscription %s: %w", id, ErrSubscriptionLost))
			return
		}
		if resp.Closed {
			st.Close()
			return
		}
	}
}

func (c *RemoteClient) unsubscribe(id string) {
	req, err := http.NewRequest(http.MethodDelete, c.base+api.Prefix+"/subscriptions/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := c.hc.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// Close releases idle transport connections. Live subscriptions close
// themselves through their own Stream.Close.
func (c *RemoteClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// do is one wire round trip against this client's daemon.
func (c *RemoteClient) do(method, path string, in, out any) error {
	return roundTrip(c.hc, method, c.base, path, in, out)
}

// roundTrip sends one request to base+path — in as a JSON body, or none when
// nil — and decodes the JSON answer into out.
func roundTrip(hc *http.Client, method, base, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	return decode(path, resp, out)
}

// maxResponse bounds how much of a response body the client will read.
const maxResponse = 64 << 20

func decode(path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if err != nil {
		return err
	}
	if len(body) > maxResponse {
		return fmt.Errorf("mycroft: %s: response exceeds %d MiB — narrow the query or page it", path, maxResponse>>20)
	}
	if resp.StatusCode != http.StatusOK {
		var we api.ErrorResponse
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			return fmt.Errorf("%s", we.Error)
		}
		return fmt.Errorf("mycroft: %s: HTTP %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}
