package replay

import "mycroft/internal/trace"

// The read-ahead's sizing. Pages is how many pages exist, which bounds how
// far decoding runs ahead of the entries being applied; a page holds at most
// pageEntries entries and, unless one batch alone is larger, pageRecords
// records.
const (
	pages       = 4
	pageEntries = 1024
	pageRecords = 4096
)

// page is a run of decoded entries. Its batches' records live in recs, which
// the decoder writes into directly. err, when set, ends the stream after the
// entries: io.EOF, or the first decode error. panicked carries a panic out of
// the decoding goroutine, to be raised again where the entries are applied.
type page struct {
	entries  []Entry
	recs     []trace.Record
	err      error
	panicked any
}

// readAhead decodes an artifact on its own goroutine while the caller applies
// what it has decoded. Pages travel to the caller on full and come back on
// free, so the steady state allocates nothing.
type readAhead struct {
	full, free chan *page
	stop       chan struct{} // closed by close: decoding stops
	exited     chan struct{} // closed by the goroutine as it returns
}

// startReadAhead starts decoding d. The caller must not touch d again until
// the page carrying io.EOF arrives (d's Footer is then safe to read), and
// must call close before it returns.
func startReadAhead(d *Decoder) *readAhead {
	ra := &readAhead{
		full:   make(chan *page, pages),
		free:   make(chan *page, pages),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	for range pages {
		ra.free <- &page{}
	}
	go ra.run(d)
	return ra
}

func (ra *readAhead) run(d *Decoder) {
	defer close(ra.exited)
	for {
		var p *page
		select {
		case p = <-ra.free:
		case <-ra.stop:
			return
		}
		p.fill(d)
		ra.full <- p // never blocks: it holds as many pages as there are
		if p.err != nil || p.panicked != nil {
			return
		}
	}
}

// fill decodes entries into p until it is full or the stream ends.
func (p *page) fill(d *Decoder) {
	defer func() {
		if v := recover(); v != nil {
			p.panicked = v
		}
	}()
	if p.recs == nil {
		p.entries, p.recs = make([]Entry, 0, pageEntries), make([]trace.Record, 0, pageRecords)
	}
	p.entries, p.recs, p.err = p.entries[:0], p.recs[:0], nil
	for len(p.entries) < pageEntries {
		// Only the page's first batch may outgrow its buffer; a later one
		// that does not fit starts the next page.
		e, err := d.next(p.recs[len(p.recs):cap(p.recs)], len(p.recs) == 0)
		if err == errNoRoom {
			return
		}
		if err != nil {
			p.err = err
			return
		}
		if e.Kind == EntryBatch {
			if len(p.recs) == 0 {
				p.recs = e.Batch[:0] // the page's buffer, or the larger one replacing it
			}
			p.recs = p.recs[:len(p.recs)+len(e.Batch)]
		}
		p.entries = append(p.entries, e)
	}
}

// next returns the next page. A page that ends the stream carries its error
// (io.EOF at a clean end); one that carries a panic raises it here.
func (ra *readAhead) next() *page {
	p := <-ra.full
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p
}

// release hands a page's buffers back for decoding.
func (ra *readAhead) release(p *page) { ra.free <- p }

// close stops decoding and waits for the goroutine to return, so nothing
// reads the artifact once the caller has.
func (ra *readAhead) close() {
	close(ra.stop)
	<-ra.exited
}
