package mycroft

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"mycroft/internal/api"
)

// ErrUnreachable marks a dial (or cluster route) that exhausted its
// connection retries: every attempt was refused, reset or timed out at the
// transport layer. Test with errors.Is.
var ErrUnreachable = errors.New("daemon unreachable")

// ErrSubscriptionLost marks a subscription whose cursor is meaningless now:
// a daemon serving it restarted, and its event log with it. The stream
// closes with this as its Err; resubscribe to continue. Test with errors.Is.
var ErrSubscriptionLost = errors.New("subscription lost")

// RemoteClient is the Client implementation that speaks the /v1 wire
// protocol to a mycroft-serve daemon. Every operation encodes its request,
// crosses HTTP and decodes the answer into the method's own result type
// (remoteCall in ops.go, driven by the operation table), so code written
// against Client runs unchanged in-process or remote. Subscriptions are fed by
// background long-polls of each job's event log into the same *Stream type
// the in-process Service hands out; failures close the stream and surface via
// Stream.Err.
type RemoteClient struct {
	wire *wireClient

	// serverID and serverStarted are captured from the dial-time ping so
	// callers can log what they connected to.
	serverID      string
	serverStarted time.Time
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

// dialAttempts is how many connection attempts Dial makes before giving up
// with ErrUnreachable.
const dialAttempts = 4

// Dial connects to a daemon at addr ("host:port" or a full http:// URL),
// verifying the wire-protocol version via /v1/ping. A refused or reset
// connection is tried dialAttempts times in all, waiting 50 ms and then
// twice as long before each retry (a daemon that is still binding its port
// wins the race within a few attempts); exhausting them returns an error
// wrapping ErrUnreachable. A daemon that answers with anything else — the wrong wire
// version included — fails at once.
func Dial(addr string) (*RemoteClient, error) {
	c := &RemoteClient{wire: newWireClient(normalizeBase(addr), 60*time.Second)}
	if c.wire.err != nil {
		return nil, fmt.Errorf("mycroft: dialing %s: %w", addr, c.wire.err)
	}
	var ping api.PingResponse
	var err error
	delay := 50 * time.Millisecond
	for attempt := 1; ; attempt++ {
		err = c.do(http.MethodGet, api.Prefix+"/ping", nil, &ping)
		if err == nil {
			break
		}
		if !isTransportErr(err) {
			return nil, fmt.Errorf("mycroft: dialing %s: %w", addr, err)
		}
		if attempt == dialAttempts {
			return nil, fmt.Errorf("mycroft: dialing %s (%d attempts): %w: %v", addr, attempt, ErrUnreachable, err)
		}
		time.Sleep(delay)
		delay *= 2
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

// jobLister is a daemon or a fleet answering ListJobs.
type jobLister interface {
	ListJobs() (JobsResult, error)
}

// liveJobs lists the jobs the daemon or fleet behind l hosts a live engine
// for. A cluster peer also lists the jobs it follows, from their replicated
// snapshots (Source "replica"); it does not host those, so they do not count.
func liveJobs(l jobLister) ([]JobID, error) {
	res, err := l.ListJobs()
	if err != nil {
		return nil, err
	}
	var live []JobID
	for _, j := range res.Jobs {
		if j.Source == "" {
			live = append(live, j.ID)
		}
	}
	return live, nil
}

// soleLiveJob fills an empty job selector the way a Service does: allowed
// only when l hosts exactly one live job.
func soleLiveJob(l jobLister, job JobID) (JobID, error) {
	if job != "" {
		return job, nil
	}
	live, err := liveJobs(l)
	if err != nil {
		return "", err
	}
	if len(live) != 1 {
		return "", fmt.Errorf("mycroft: query needs a Job id (%d live jobs)", len(live))
	}
	return live[0], nil
}

// FetchRecord streams a job's incident artifact snapshot from the daemon
// into w. The bytes are a valid (possibly footer-less) artifact as of the
// daemon's current virtual instant, ready for mycroft.Replay. Unlike query
// responses, the download is unbounded — artifacts from long runs can exceed
// the JSON response cap by design.
func (c *RemoteClient) FetchRecord(job JobID, w io.Writer) error {
	path := jobPath(api.Prefix+"/jobs/{id}/record", job)
	b, err := c.wire.send(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if b.status != http.StatusOK {
		return decode(path, b, nil)
	}
	defer b.Close()
	_, err = io.Copy(w, b)
	return err
}

// Subscribe follows the event log of every job the filter names (every
// job the daemon hosts when it names none), through the tail loop a
// ClusterClient runs too. Creation failures come back as an already-closed
// stream whose Err explains why — so the streaming-cursor call shape stays
// identical to the in-process Service.
func (c *RemoteClient) Subscribe(f EventFilter) *Stream { return subscribe(c, f) }

// To a subscription a RemoteClient is a fleet of one peer with no health to
// keep.
func (c *RemoteClient) candidates(string) []string  { return []string{c.wire.base} }
func (c *RemoteClient) client(string) *RemoteClient { return c }
func (c *RemoteClient) markUp(string)               {}
func (c *RemoteClient) failover(string)             {}

// tailFleet is where a remote subscription reads a job's event log: the
// peers that may serve it, in the order to ask them, and a transport to each.
type tailFleet interface {
	jobLister
	candidates(job string) []string
	client(peer string) *RemoteClient
	markUp(peer string)
	failover(peer string)
}

// errTailsClosed reports that every peer able to serve a job answered its
// tail closed: a clean shutdown, so the stream ends without an error.
var errTailsClosed = errors.New("mycroft: every peer closed the tail")

// subscribe is the one remote Subscribe. It sets a cursor at each job's log
// watermark before returning, so the stream carries exactly what is
// dispatched from then on, and then follows each job's log on a goroutine of
// its own. The stream closes cleanly once every job's tails are closed.
func subscribe(fl tailFleet, f EventFilter) *Stream {
	st := newStream(nil, f)
	jobs := f.Jobs
	if len(jobs) == 0 {
		var err error
		if jobs, err = liveJobs(fl); err != nil {
			st.fail(err)
			return st
		}
		if len(jobs) == 0 {
			st.fail(fmt.Errorf("mycroft: no hosted jobs to subscribe to"))
			return st
		}
	}
	tails := make([]*jobTail, len(jobs))
	var delivering sync.Mutex
	for i, job := range jobs {
		t := &jobTail{fl: fl, st: st, delivering: &delivering, job: string(job), started: map[string]int64{}, closed: map[string]bool{}}
		head, err := t.ask(math.MaxUint64, 0)
		switch {
		case err == errTailsClosed:
			st.Close()
			return st
		case err != nil:
			st.fail(err)
			return st
		}
		t.cursor = head.Watermark
		tails[i] = t
	}
	var wg sync.WaitGroup
	for _, t := range tails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.follow()
		}()
	}
	go func() {
		wg.Wait()
		st.Close()
	}()
	return st
}

// jobTail is one job's cursor in a subscription.
type jobTail struct {
	fl tailFleet
	st *Stream
	// delivering is shared by the subscription's tails, so an Each handler
	// never runs on two of them at once.
	delivering *sync.Mutex
	job        string
	cursor     uint64
	// started is the start instant each peer first answered with; closed
	// marks the peers that answered closed, which are not asked again.
	started map[string]int64
	closed  map[string]bool
}

// follow reads the job's log past the cursor until the stream closes. A seq
// jump counts into Stream.Dropped: entries the answering log no longer held
// (trimmed) or never got (replication lag after a failover). Peers serve the
// log unfiltered, so the filter applies here; the server-shutdown marker
// passes any filter.
func (t *jobTail) follow() {
	for !t.st.isClosed() {
		page, err := t.ask(t.cursor, 1000)
		switch {
		case err == errTailsClosed:
			return
		case errors.Is(err, ErrSubscriptionLost), errors.Is(err, ErrUnreachable):
			t.st.fail(err)
			return
		case err != nil:
			// Every candidate refused: the fleet may be mid-failover, with a
			// follower that has not heard of the job yet. Ask again shortly.
			time.Sleep(250 * time.Millisecond)
			continue
		}
		t.delivering.Lock()
		for _, se := range page.Entries {
			if se.Seq <= t.cursor {
				continue
			}
			t.st.addDropped(se.Seq - t.cursor - 1)
			t.cursor = se.Seq
			if e := se.Event; t.st.filter.matches(e) || e.Phase == PhaseServerShutdown {
				t.st.deliver(e)
			}
		}
		t.delivering.Unlock()
	}
}

// ask sends one tail request to the job's candidates in order and returns
// the first page a peer serves. A peer that fails at the transport layer or
// refuses (a follower that has not heard of the job yet) passes the request
// on. It returns errTailsClosed once every candidate has answered closed,
// ErrUnreachable when every one it asked failed at the transport layer, and
// ErrSubscriptionLost when a peer answers with a start instant other than its
// first: that daemon restarted, its log's seqs with it.
func (t *jobTail) ask(after uint64, timeoutMs int) (api.TailResponse, error) {
	req := api.TailRequest{Job: t.job, AfterSeq: after, TimeoutMs: timeoutMs, Max: 256}
	peers := t.fl.candidates(t.job)
	var err error
	unreachable := true
	for _, p := range peers {
		if t.closed[p] {
			continue
		}
		var page api.TailResponse
		if e := t.fl.client(p).do(http.MethodPost, api.Prefix+"/tail", req, &page); e != nil {
			if err = e; isTransportErr(e) {
				t.fl.failover(p)
			} else {
				unreachable = false
			}
			continue
		}
		t.fl.markUp(p)
		if first, seen := t.started[p]; seen && first != page.StartedUnixNs {
			return page, fmt.Errorf("mycroft: job %s: daemon restarted under the cursor: %w", t.job, ErrSubscriptionLost)
		}
		t.started[p] = page.StartedUnixNs
		if !page.Closed {
			return page, nil
		}
		t.closed[p], unreachable = true, false
	}
	switch {
	case !slices.ContainsFunc(peers, func(p string) bool { return !t.closed[p] }):
		return api.TailResponse{}, errTailsClosed
	case unreachable:
		return api.TailResponse{}, fmt.Errorf("mycroft: job %s: every candidate peer failed: %w: %v", t.job, ErrUnreachable, err)
	}
	return api.TailResponse{}, err
}

// Close closes the idle connections to the daemon. Live subscriptions close
// themselves through their own Stream.Close.
func (c *RemoteClient) Close() error {
	c.wire.closeIdle()
	return nil
}

// do is one wire round trip against this client's daemon.
func (c *RemoteClient) do(method, path string, in, out any) error {
	return c.wire.do(method, path, in, out)
}

// maxResponse bounds how much of a response body the client will read.
const maxResponse = 64 << 20

// decode reads one answer, at most maxResponse bytes, and closes it. A 200
// is decoded into out: through out's wireCodec when it has one and that
// accepts the body, through encoding/json otherwise. Any other status is the
// error the body names.
func decode(path string, b *wireBody, out any) error {
	defer b.Close()
	if b.length > maxResponse {
		return tooLarge(path)
	}
	// A declared length sizes the buffer once, so a large page is not
	// copied as the buffer doubles; MinRead of spare room lets the last read
	// see EOF without growing it.
	var buf bytes.Buffer
	if b.length >= 0 {
		buf.Grow(int(b.length) + bytes.MinRead)
	}
	b.max = maxResponse
	if _, err := buf.ReadFrom(b); err != nil {
		if err == errTooLarge {
			return tooLarge(path)
		}
		return err
	}
	body := buf.Bytes()
	if b.status != http.StatusOK {
		var we api.ErrorResponse
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			return fmt.Errorf("%s", we.Error)
		}
		return fmt.Errorf("mycroft: %s: HTTP %d", path, b.status)
	}
	if c, ok := out.(wireCodec); ok && c.parseWire(body) {
		return nil
	}
	return json.Unmarshal(body, out)
}

func tooLarge(path string) error {
	return fmt.Errorf("mycroft: %s: response exceeds %d MiB — narrow the query or page it", path, maxResponse>>20)
}
