package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"overlay/internal/rng"
	"overlay/internal/service"
	"overlay/internal/sim"
)

// sloLimit is the lookup latency limit: a lookup that fails, is
// refused, or answers later than this after its due time misses it.
const sloLimit = 50 * time.Millisecond

// faultSpec is the fault plane armed after the set-up build: every
// message passes the faulty delivery path (1% are held back up to two
// rounds) and about one epoch in sixteen loses a message and climbs a
// patch rung of the recovery ladder, which runs its full round budget.
const faultSpec = "drop=0.000005,delay=0.01,delaymax=2"

// served is one set-up of serve_churn: the service in this process
// behind a loopback listener, one hosted overlay, and the two
// generators' connections.
type served struct {
	srv  *service.Server
	http *http.Server
	done chan struct{} // closed when Serve returns
	base string
	id   string
	tr   *tracer

	writer, reader *http.Client

	mu      sync.RWMutex
	members []int

	planInFlight atomic.Bool
	epoch        int // next churn seed index (warm-up included)
}

// ServeHTTP is the benchmark's wrapper around the service's handler:
// for a request that carries the client's "trace.span" in a header it
// records the handler's own span under it.
func (sv *served) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h := req.Header["X-Bench-Span"]
	if len(h) == 0 {
		sv.srv.Handler().ServeHTTP(w, req)
		return
	}
	ts, ps, _ := strings.Cut(h[0], ".")
	trace, _ := strconv.Atoi(ts)
	parent, _ := strconv.Atoi(ps)
	id := sv.tr.begin(int32(trace), int32(parent), "service.handler")
	sv.srv.Handler().ServeHTTP(w, req)
	sv.tr.end(id)
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// close stops the listener, drains the service and waits for Serve to
// return.
func (sv *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sv.writer.CloseIdleConnections()
	sv.reader.CloseIdleConnections()
	err := sv.http.Shutdown(ctx)
	if _, derr := sv.srv.Drain(ctx); err == nil {
		err = derr
	}
	<-sv.done
	return err
}

// call issues one request and returns the status, the body and when
// the response was complete. trace and span ride along in a header
// when span is non-zero.
func (sv *served) call(c *http.Client, method, path string, body []byte, trace, span int32) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, sv.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header["X-Bench-Span"] = []string{strconv.Itoa(int(trace)) + "." + strconv.Itoa(int(span))}
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (sv *served) post(c *http.Client, path string, v any, trace, span int32) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	return sv.call(c, http.MethodPost, path, body, trace, span)
}

// refreshMembers reloads the endpoint pool from the paged listing.
func (sv *served) refreshMembers(rec *recd) error {
	t0 := time.Now()
	status, body, err := sv.call(sv.writer, http.MethodGet, "/v1/overlays/"+sv.id+"/nodes?pageSize=10000", nil, 0, 0)
	if err != nil {
		return err
	}
	var page struct {
		Nodes []int `json:"nodes"`
		Total int   `json:"total"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &page) != nil || len(page.Nodes) != page.Total {
		return fmt.Errorf("nodes listing: status %d, %d of %d members", status, len(page.Nodes), page.Total)
	}
	rec.since("service.nodes_page", t0)
	sv.mu.Lock()
	sv.members = page.Nodes
	sv.mu.Unlock()
	return nil
}

// epochSummary is the part of the service's epoch listing row the
// benchmark reads.
type epochSummary struct {
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Attempts int    `json:"attempts"`
	Rebuilt  bool   `json:"rebuilt"`
	Path     string `json:"path"`
	Members  int    `json:"members"`
}

// planEpoch is one wire epoch: POST /plan with a one-epoch 2%+2% churn
// schedule on the next derived churn seed. It returns the epoch summary
// the service answered with.
func (sv *served) planEpoch(seed uint64, trace, span int32) (*epochSummary, int, error) {
	spec := fmt.Sprintf("epochs=1,join=0.02,leave=0.02,churnseed=%d", derive(seed, "churn", sv.epoch))
	sv.epoch++
	status, body, err := sv.post(sv.writer, "/v1/overlays/"+sv.id+"/plan", map[string]string{"spec": spec}, trace, span)
	if err != nil {
		return nil, 0, err
	}
	var out struct {
		Applied int            `json:"epochs_applied"`
		Epochs  []epochSummary `json:"epochs"`
	}
	if status != http.StatusOK {
		return nil, status, nil
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Applied != 1 || len(out.Epochs) != 1 {
		return nil, status, fmt.Errorf("plan answered %d with %q", status, body)
	}
	return &out.Epochs[0], status, nil
}

// serveSetup starts the service, creates the overlay fault-free, arms
// the fault plane with one fault-only /plan (so the set-up build is not
// itself attacked), loads the member pool and runs the warm-up.
func (r *run) serveSetup() (*served, error) {
	sv := &served{srv: service.New(service.Options{}), tr: r.tr, writer: oneConnClient(), reader: oneConnClient(), done: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv.base = "http://" + ln.Addr().String()
	sv.http = &http.Server{Handler: sv}
	go func() {
		defer close(sv.done)
		sv.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	fail := func(err error) (*served, error) {
		sv.close()
		return nil, err
	}

	t0 := time.Now()
	status, body, err := sv.post(sv.writer, "/v1/overlays", map[string]any{
		"n": r.sz.n, "topology": "line", "seed": derive(r.cfg.Seed, "setup", 0),
		"message_level": true, "accounting": "measured", "patch_retries": 8,
	}, 0, 0)
	if err != nil {
		return fail(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(body, &info) != nil || info.ID == "" {
		return fail(fmt.Errorf("create answered %d: %s", status, body))
	}
	r.since("service.create", t0)
	sv.id = info.ID

	faults := fmt.Sprintf("%s,seed=%d", faultSpec, derive(r.cfg.Seed, "faults", 0))
	if status, body, err = sv.post(sv.writer, "/v1/overlays/"+sv.id+"/plan", map[string]string{"spec": faults}, 0, 0); err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("arming the fault plan answered %d: %s (%v)", status, body, err))
	}
	if err := sv.refreshMembers(&r.recd); err != nil {
		return fail(err)
	}
	for w := 0; w < r.sz.warm; w++ {
		if _, status, err := sv.planEpoch(r.cfg.Seed, 0, 0); err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("warm-up epoch %d answered %d (%v)", w, status, err))
		}
	}
	if err := sv.refreshMembers(&r.recd); err != nil {
		return fail(err)
	}
	warm := newRecd()
	src := rng.New(derive(r.cfg.Seed, "warm", 0))
	for k := 0; k < r.sz.warmLookups; k++ {
		sv.request(k, src, &warm, nil, time.Now(), nil)
	}
	if warm.counts["untyped"] > 0 {
		return fail(fmt.Errorf("%v warm-up requests ended without a typed verdict", warm.counts["untyped"]))
	}
	return sv, nil
}

// request issues the reader's k-th slot: every tenth a paged derived
// view, the rest lookups between current members. Latency is counted
// from due. It classifies the answer into exactly one census bucket.
func (sv *served) request(k int, src *rng.Source, rec *recd, tr *tracer, due time.Time, check func(path []int, from, to int)) {
	sv.mu.RLock()
	members := sv.members
	sv.mu.RUnlock()
	derived := k%10 == 9
	kind, path := "lookup", ""
	from, to := 0, 0
	if derived {
		kind = "derived"
		path = fmt.Sprintf("/v1/overlays/%s/derived?view=%s&pageSize=64&current=%d", sv.id, viewNames[(k/10)%4], 1+src.Intn(8))
	} else {
		from, to = members[src.Intn(len(members))], members[src.Intn(len(members))]
		path = fmt.Sprintf("/v1/overlays/%s/lookup?from=%d&to=%d", sv.id, from, to)
	}
	trace := int32(k + 1)
	blocked := sv.planInFlight.Load()
	span := tr.begin(trace, 0, "request."+kind)
	sent := time.Now()
	status, body, err := sv.call(sv.reader, http.MethodGet, path, nil, trace, span)
	done := time.Now()
	tr.end(span)
	blocked = blocked || sv.planInFlight.Load()

	rec.inc("issued", 1)
	rec.inc(kind+".issued", 1)
	lat, rtt := done.Sub(due), done.Sub(sent)
	verdict := "untyped"
	switch {
	case err != nil:
	case status == http.StatusOK:
		verdict = "ok"
		if derived {
			var v struct {
				Edges [][2]int `json:"edges"`
				Total int      `json:"total"`
			}
			if json.Unmarshal(body, &v) != nil || v.Total == 0 {
				verdict = "untyped"
			}
			break
		}
		var v struct {
			Path []int `json:"path"`
		}
		if json.Unmarshal(body, &v) != nil {
			verdict = "untyped"
		} else if check != nil {
			check(v.Path, from, to)
		}
	case typedError(body):
		switch status {
		case http.StatusGone, http.StatusNotFound:
			verdict = "stale"
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			verdict = "refused"
		}
		rec.inc("http_"+strconv.Itoa(status), 1)
	}
	rec.inc(verdict, 1)
	if derived {
		if verdict == "ok" {
			rec.add("service.derived", rtt.Seconds())
		}
		return
	}
	if verdict == "ok" || verdict == "stale" {
		rec.add("lookup", lat.Seconds())
		if !blocked {
			rec.add("lookup.idle", rtt.Seconds())
			rec.add("lookup.idle_slot", float64(k))
		}
	}
	if verdict == "stale" {
		rec.inc("lookup.stale", 1)
	}
	if blocked {
		rec.inc("lookup.blocked", 1)
	}
	if verdict == "untyped" || verdict == "refused" || lat > sloLimit {
		rec.inc("lookup.slo_miss", 1)
	}
}

// typedError reports whether a non-2xx body is the service's stable
// {code, reason} error form.
func typedError(body []byte) bool {
	var e struct {
		Code string `json:"code"`
	}
	return json.Unmarshal(body, &e) == nil && e.Code != ""
}

// dueClock is the open-loop schedule: slot k is due at start + k·every,
// whatever happened to the slots before it.
type dueClock struct {
	start time.Time
	every time.Duration
}

func (c dueClock) due(k int) time.Time { return c.start.Add(time.Duration(k) * c.every) }

// spinWithin is how close to a due time the clock stops sleeping and
// yields in a loop instead: timers on a small sandbox overshoot by a
// millisecond, which is a whole slot at 1000 requests a second.
const spinWithin = 2 * time.Millisecond

// wait blocks until slot k is due and returns the due time and how
// late the generator is for it.
func (c dueClock) wait(k int) (time.Time, time.Duration) {
	due := c.due(k)
	if d := time.Until(due); d > spinWithin {
		time.Sleep(d - spinWithin)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return due, time.Since(due)
}

// openLoop issues slots 0..slots-1 on the schedule, one after the other
// on the calling goroutine: a slow answer makes the slots behind it late,
// and they are still issued and still timed from their due time, so the
// stall is charged to every request it delayed. Slots still unissued at
// giveUp (a backlog that never drains) are abandoned and counted.
func (c dueClock) openLoop(slots int, giveUp time.Time, issue func(k int, due time.Time, late time.Duration)) (unissued int) {
	for k := 0; k < slots; k++ {
		due, late := c.wait(k)
		if time.Now().After(giveUp) {
			return slots - k
		}
		issue(k, due, late)
	}
	return 0
}

// runServe drives serve_churn.
func runServe(r *run) {
	var sv *served
	for rep := 0; rep < r.sz.setupReps; rep++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				r.violate("closing set-up %d: %v", rep-1, err)
			}
		}
		t0 := time.Now()
		var err error
		if sv, err = r.serveSetup(); err != nil {
			r.violate("set-up: %v", err)
			return
		}
		r.since("setup", t0)
	}
	defer func() {
		if err := sv.close(); err != nil {
			r.violate("shutdown: %v", err)
		}
	}()

	warm := sv.epoch
	o0, b0 := r.allocs.read()
	r.serveTimed(sv)
	o1, b1 := r.allocs.read()
	c := r.counts
	r.allocObj, r.allocBytes = o1-o0, b1-b0
	r.allocOps = int(c["issued"] + c["plan.issued"])

	// The request census must balance: every issued request ended in
	// exactly one verdict, and an untyped one is a failure.
	if c["issued"] != c["ok"]+c["stale"]+c["refused"]+c["untyped"] {
		r.violate("request census does not balance: issued %v = ok %v + stale %v + refused %v + untyped %v", c["issued"], c["ok"], c["stale"], c["refused"], c["untyped"])
	}
	if c["untyped"] > 0 {
		r.violate("%v requests ended without a typed verdict", c["untyped"])
	}
	r.attempted += int(c["issued"] + c["plan.issued"])
	r.serveBills(sv, warm)
}

// traceBlock is how many consecutive reader slots of a traced run are
// traced before as many are left plain.
const traceBlock = 10

// serveTimed runs both generators for the run's budget: the writer
// posts one epoch per epochEvery slot, the reader issues rate requests
// per second; each is one goroutine with one connection. A traced run
// traces every other epoch and every other block of traceBlock reader
// slots; the plain ones in between are the base of trace.overhead_share,
// read under the same host conditions a few milliseconds apart.
func (r *run) serveTimed(sv *served) {
	start := time.Now().Add(5 * time.Millisecond)
	epochs := max(int(r.budget()/r.sz.epochEvery), r.sz.minOps)
	every := time.Second / time.Duration(r.sz.rate)
	perEpoch := int(r.sz.epochEvery / every)
	slots := epochs * perEpoch
	giveUp := start.Add(time.Duration(epochs)*r.sz.epochEvery + 10*time.Second)
	tracerFor := func(block int) *tracer {
		if block%2 == 0 {
			return r.tr
		}
		return nil
	}

	wrec, rrec := newRecd(), newRecd()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // generator 1: the epoch writer
		defer wg.Done()
		clk := dueClock{start, r.sz.epochEvery}
		for e := 0; e < epochs; e++ {
			_, late := clk.wait(e)
			wrec.add("gen.writer_late", late.Seconds())
			tr, phase := tracerFor(e), "op"
			if tr != nil {
				phase = "op.traced"
			}
			trace := int32(1<<20 + e)
			span := tr.begin(trace, 0, "request.plan")
			sv.planInFlight.Store(true)
			t0 := time.Now()
			sum, status, err := sv.planEpoch(r.cfg.Seed, trace, span)
			rtt := time.Since(t0)
			sv.planInFlight.Store(false)
			tr.end(span)
			wrec.inc("plan.issued", 1)
			if err != nil || sum == nil {
				wrec.inc("plan.failed", 1)
				if status == http.StatusConflict {
					wrec.inc("session.aborts", 1)
				}
				continue
			}
			wrec.add(phase, rtt.Seconds())
			wrec.inc("session.epochs", 1)
			wrec.inc("session.attempts", float64(sum.Attempts))
			if sum.Rebuilt {
				wrec.inc("session.rebuilds", 1)
			}
			if err := sv.refreshMembers(&wrec); err != nil {
				wrec.inc("plan.failed", 1)
			}
		}
	}()
	var bad []string
	go func() { // generator 2: the open-loop reader
		defer wg.Done()
		clk := dueClock{start, every}
		src := rng.New(derive(r.cfg.Seed, "endpoints", 0))
		check := func(path []int, from, to int) {
			k := r.sz.n // joins and leaves balance, so the membership stays n
			if len(path) == 0 || path[0] != from || path[len(path)-1] != to || len(path)-1 > sim.LogBound(k) {
				rrec.inc("lookup.badpath", 1)
				if len(bad) < 5 {
					bad = append(bad, fmt.Sprintf("lookup %d→%d returned %v", from, to, path))
				}
			}
		}
		unissued := clk.openLoop(slots, giveUp, func(k int, due time.Time, late time.Duration) {
			rrec.add("gen.reader_late", late.Seconds())
			sv.request(k, src, &rrec, tracerFor(k/traceBlock), due, check)
		})
		rrec.inc("unissued", float64(unissued))
	}()
	wg.Wait()

	r.merge(wrec)
	r.merge(rrec)
	if r.cfg.Trace {
		// One traced/plain pair per epoch period: the median round trip of
		// its traced idle lookups over that of its plain ones.
		var traced, plain []float64
		period := 0
		flush := func() {
			if len(traced) >= traceBlock && len(plain) >= traceBlock {
				r.add("ovh.ratio", median(traced)/median(plain))
			}
			traced, plain = traced[:0], plain[:0]
		}
		for i, slot := range rrec.samples["lookup.idle_slot"] {
			k := int(slot)
			if k/perEpoch != period {
				flush()
				period = k / perEpoch
			}
			if tracerFor(k/traceBlock) != nil {
				traced = append(traced, rrec.samples["lookup.idle"][i])
			} else {
				plain = append(plain, rrec.samples["lookup.idle"][i])
			}
		}
		flush()
	}
	if n := wrec.counts["plan.failed"]; n > 0 {
		r.violate("%v wire epochs failed or aborted", n)
	}
	if n := rrec.counts["unissued"]; n > 0 {
		r.violate("%v reader slots were never issued: the backlog did not drain", n)
	}
	for _, b := range bad {
		r.violate("%s", b)
	}
	if n := int(rrec.counts["lookup.badpath"]) - len(bad); n > 0 {
		r.failed += n
	}
}

// serveBills reads every epoch bill back over the wire after the run:
// the simulated statistics of the timed epochs feed the fingerprint,
// the window counts and the fault-plane totals.
func (r *run) serveBills(sv *served, warm int) {
	status, body, err := sv.call(sv.writer, http.MethodGet, "/v1/overlays/"+sv.id+"/bills?pageSize=10000", nil, 0, 0)
	var out struct {
		Bills []struct {
			epochSummary
			Epoch               int   `json:"epoch"`
			MaxMessagesPerRound int   `json:"max_messages_per_round"`
			MaxMessagesTotal    int64 `json:"max_messages_total"`
			CapacityDrops       int64 `json:"capacity_drops"`
			FaultDrops          int64 `json:"fault_drops"`
			FaultDelays         int64 `json:"fault_delays"`
		} `json:"bills"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &out) != nil || len(out.Bills) < warm {
		r.violate("bills listing answered %d (%v)", status, err)
		return
	}
	for i, b := range out.Bills[warm:] {
		p := newPrint()
		p.ints(b.Epoch, b.Rounds, b.MaxMessagesPerRound, b.Attempts, b.Members)
		p.u64(uint64(b.Messages), uint64(b.MaxMessagesTotal), uint64(b.FaultDrops), uint64(b.FaultDelays), uint64(b.CapacityDrops))
		p.str(b.Path)
		r.fold(i, p.h, map[string]int64{"rounds": int64(b.Rounds), "msgs": b.Messages, "attempts": int64(b.Attempts),
			"fault_drops": b.FaultDrops, "fault_delays": b.FaultDelays, "capacity_drops": b.CapacityDrops})
		r.inc("sim.fault_drops", float64(b.FaultDrops))
		r.inc("sim.fault_delays", float64(b.FaultDelays))
		r.inc("sim.capacity_drops", float64(b.CapacityDrops))
		r.inc("session.patch_retries", float64(max(b.Attempts-1, 0)))
		if b.Members != r.sz.n {
			r.violate("epoch %d left %d members, the balanced churn keeps %d", b.Epoch, b.Members, r.sz.n)
		}
	}
}
