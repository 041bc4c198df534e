package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"overlay"
)

// --- helpers -----------------------------------------------------------

// newServer builds a debug-enabled server with a small queue so the
// backpressure paths are reachable.
func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 2
	}
	opts.Debug = true
	return New(opts)
}

// do drives one request through the handler stack and decodes the
// JSON body into out (which may be nil).
func do(t *testing.T, s *Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

// mustStatus asserts the recorded status and returns the decoded
// error body for non-2xx responses.
func mustStatus(t *testing.T, rec *httptest.ResponseRecorder, want int) APIError {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, want, rec.Body.String())
	}
	var ae APIError
	if rec.Code >= 400 {
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
			t.Fatalf("error body %q is not an APIError: %v", rec.Body.String(), err)
		}
	}
	return ae
}

// createOverlay provisions a fast-path overlay and returns its id.
func createOverlay(t *testing.T, s *Server, n int, extra map[string]any) string {
	t.Helper()
	body := map[string]any{"n": n, "seed": 7}
	for k, v := range extra {
		body[k] = v
	}
	var info overlayInfo
	rec := do(t, s, "POST", "/v1/overlays", body, &info)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", rec.Code, rec.Body.String())
	}
	if info.ID == "" || info.State != "ready" {
		t.Fatalf("create: info %+v", info)
	}
	return info.ID
}

// fingerprint captures the observable session state the robustness
// tests assert is untouched after a refused or failed mutation.
type fingerprint struct {
	epoch, clock, nextID int
	members              []int
	bills                int
}

func snapshot(sess *overlay.Session) fingerprint {
	return fingerprint{
		epoch:   sess.Epoch(),
		clock:   sess.ClockRound(),
		nextID:  sess.NextID(),
		members: sess.Members(),
		bills:   len(sess.Bills()),
	}
}

// --- satellite 2: the error-mapping table ------------------------------

func TestMapErrorTable(t *testing.T) {
	epoch3 := 3
	epochInit := -1
	cases := []struct {
		name       string
		err        error
		status     int
		code       string
		retryAfter int
		epoch      *int
	}{
		{"departed", &overlay.DepartedError{Node: 9, Epoch: 3}, http.StatusGone, "departed", 0, &epoch3},
		{"departed_initial_build", &overlay.DepartedError{Node: 2, Epoch: -1}, http.StatusGone, "departed", 0, &epochInit},
		{"departed_wrapped", fmt.Errorf("lookup: %w", &overlay.DepartedError{Node: 9, Epoch: 3}), http.StatusGone, "departed", 0, &epoch3},
		{"not_member", &overlay.NotMemberError{Node: 99}, http.StatusNotFound, "not_member", 0, nil},
		{"interrupted", overlay.ErrInterrupted, http.StatusGatewayTimeout, "deadline", 0, nil},
		{"interrupted_wrapped", fmt.Errorf("%w: %w", overlay.ErrInterrupted, context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline", 0, nil},
		{"ctx_deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline", 0, nil},
		{"ctx_canceled", context.Canceled, http.StatusGatewayTimeout, "deadline", 0, nil},
		{"losing_draw", fmt.Errorf("%w: 1 of 16 nodes cut off", overlay.ErrEvolutionDisconnected), http.StatusServiceUnavailable, "losing_draw", 1, nil},
		{"queue_full", ErrQueueFull, http.StatusTooManyRequests, "queue_full", 1, nil},
		{"draining", ErrDraining, http.StatusServiceUnavailable, "draining", 2, nil},
		{"evicted", ErrEvicted, http.StatusGone, "evicted", 0, nil},
		{"panic", &PanicError{Value: "boom"}, http.StatusInternalServerError, "panic", 0, nil},
		{"api_passthrough", apiErr(http.StatusBadRequest, "bad_plan", "nope"), http.StatusBadRequest, "bad_plan", 0, nil},
		{"fallthrough", errors.New("mystery"), http.StatusInternalServerError, "internal", 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ae := MapError(tc.err)
			if ae.Status != tc.status || ae.Code != tc.code || ae.RetryAfter != tc.retryAfter {
				t.Fatalf("MapError(%v) = {%d %s retry %d}, want {%d %s retry %d}",
					tc.err, ae.Status, ae.Code, ae.RetryAfter, tc.status, tc.code, tc.retryAfter)
			}
			switch {
			case tc.epoch == nil && ae.Epoch != nil:
				t.Fatalf("unexpected epoch %d in body", *ae.Epoch)
			case tc.epoch != nil && (ae.Epoch == nil || *ae.Epoch != *tc.epoch):
				t.Fatalf("epoch = %v, want %d", ae.Epoch, *tc.epoch)
			}
			if ae.Reason == "" {
				t.Fatal("empty reason")
			}
		})
	}
}

// TestErrorBodyShape pins the wire shape: {code, reason, epoch} and
// nothing transport-internal leaking into the JSON.
func TestErrorBodyShape(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, &overlay.DepartedError{Node: 4, Epoch: 2})
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"code":   "departed",
		"reason": (&overlay.DepartedError{Node: 4, Epoch: 2}).Error(),
		"epoch":  float64(2),
	}
	if !reflect.DeepEqual(body, want) {
		t.Fatalf("body = %v, want %v", body, want)
	}

	rec = httptest.NewRecorder()
	writeError(rec, ErrQueueFull)
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	body = map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if _, leaked := body["epoch"]; leaked {
		t.Fatal("epoch leaked into a body without one")
	}
}

// --- API lifecycle -----------------------------------------------------

func TestCreateInspectLookupDelete(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 24, map[string]any{"name": "t", "topology": "ring"})

	var info overlayInfo
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id, nil, &info), http.StatusOK)
	if info.Members != 24 || info.Epoch != 0 || info.Topology != "ring" || info.Name != "t" {
		t.Fatalf("inspect: %+v", info)
	}

	var lk struct {
		Path []int `json:"path"`
		Hops int   `json:"hops"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/lookup?from=0&to=17", nil, &lk), http.StatusOK)
	if len(lk.Path) < 1 || lk.Path[0] != 0 || lk.Path[len(lk.Path)-1] != 17 || lk.Hops != len(lk.Path)-1 {
		t.Fatalf("lookup: %+v", lk)
	}

	ae := mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/lookup?from=0&to=999", nil, nil), http.StatusNotFound)
	if ae.Code != "not_member" {
		t.Fatalf("lookup unknown: %+v", ae)
	}

	mustStatus(t, do(t, s, "DELETE", "/v1/overlays/"+id, nil, nil), http.StatusOK)
	ae = mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id, nil, nil), http.StatusNotFound)
	if ae.Code != "overlay_not_found" {
		t.Fatalf("after delete: %+v", ae)
	}
}

func TestCreateRejections(t *testing.T) {
	s := newServer(t, Options{MaxBuildN: 64})
	cases := []struct {
		name string
		body map[string]any
		code string
	}{
		{"n_too_large", map[string]any{"n": 65}, "bad_request"},
		{"n_missing", map[string]any{}, "bad_request"},
		{"bad_topology", map[string]any{"n": 8, "topology": "torus"}, "bad_request"},
		{"bad_accounting", map[string]any{"n": 8, "accounting": "audited"}, "bad_request"},
		{"bad_plan", map[string]any{"n": 8, "plan": "drop=2"}, "bad_plan"},
		{"churn_plan_at_create", map[string]any{"n": 8, "plan": "epochs=3,leave=0.1"}, "bad_plan"},
		{"faults_without_message_level", map[string]any{"n": 8, "plan": "drop=0.5"}, "bad_request"},
		{"workers_above_gomaxprocs", map[string]any{"n": 8, "workers": runtime.GOMAXPROCS(0) + 1}, "bad_request"},
		{"negative_workers", map[string]any{"n": 8, "workers": -1}, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ae := mustStatus(t, do(t, s, "POST", "/v1/overlays", tc.body, nil), http.StatusBadRequest)
			if ae.Code != tc.code {
				t.Fatalf("code = %q, want %q (%s)", ae.Code, tc.code, ae.Reason)
			}
		})
	}
}

// TestCreateLosingDraw: a create whose seed draws a disconnected
// expander (seed 70 on a 16-node line, found by search over the fast
// build's seeds) is not the client's fault — a retryable 503 with
// Retry-After, not a 400 — and the next seed builds.
func TestCreateLosingDraw(t *testing.T) {
	s := newServer(t, Options{})
	rec := do(t, s, "POST", "/v1/overlays", map[string]any{"n": 16, "topology": "line", "seed": 70}, nil)
	ae := mustStatus(t, rec, http.StatusServiceUnavailable)
	if ae.Code != "losing_draw" || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("losing draw: %+v, Retry-After %q", ae, rec.Header().Get("Retry-After"))
	}
	createOverlay(t, s, 16, map[string]any{"topology": "line", "seed": 71})
}

// --- the paged-listing contract ----------------------------------------

func TestPagedListing(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 30, nil)

	var page struct {
		Nodes []int `json:"nodes"`
		Total int   `json:"total"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/nodes?pageSize=10&current=2", nil, &page), http.StatusOK)
	if page.Total != 30 || len(page.Nodes) != 10 || page.Nodes[0] != 10 || page.Nodes[9] != 19 {
		t.Fatalf("page 2: %+v", page)
	}

	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/nodes?pageSize=10&current=1&order=descend", nil, &page), http.StatusOK)
	if page.Nodes[0] != 29 || page.Nodes[9] != 20 {
		t.Fatalf("descend: %+v", page)
	}

	// An out-of-range page is empty with the true total, not an error.
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/nodes?pageSize=10&current=9", nil, &page), http.StatusOK)
	if page.Total != 30 || len(page.Nodes) != 0 {
		t.Fatalf("past the end: %+v", page)
	}

	// The last partial page.
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/nodes?pageSize=8&current=4", nil, &page), http.StatusOK)
	if len(page.Nodes) != 6 || page.Nodes[0] != 24 {
		t.Fatalf("partial page: %+v", page)
	}

	for _, bad := range []struct{ name, query string }{
		{"pageSize_zero", "pageSize=0"},
		{"pageSize_huge", "pageSize=10001"},
		{"current_zero", "current=0"},
		{"current_negative", "current=-3"},
		{"order_unknown", "order=sideways"},
		// (current-1)*pageSize would overflow int and wrap negative;
		// parsePage must reject it as a 400, not slice garbage.
		{"window_overflow", "pageSize=10000&current=9223372036854775807"},
		{"window_overflow_edge", fmt.Sprintf("pageSize=2&current=%d", math.MaxInt/2+2)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			ae := mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/nodes?"+bad.query, nil, nil), http.StatusBadRequest)
			if ae.Code != "bad_request" {
				t.Fatalf("%s: %+v", bad.query, ae)
			}
		})
	}
	// The largest window that still fits must not trip the guard.
	var hugePage struct {
		Nodes []int `json:"nodes"`
		Total int   `json:"total"`
	}
	mustStatus(t, do(t, s, "GET", fmt.Sprintf("/v1/overlays/%s/nodes?pageSize=2&current=%d", id, math.MaxInt/2), nil, &hugePage), http.StatusOK)
	if hugePage.Total != 30 || len(hugePage.Nodes) != 0 {
		t.Fatalf("max in-range window: %+v", hugePage)
	}

	// The overlays listing speaks the same contract.
	createOverlay(t, s, 12, nil)
	var list struct {
		Overlays []overlayInfo `json:"overlays"`
		Total    int           `json:"total"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays?pageSize=1&current=2", nil, &list), http.StatusOK)
	if list.Total != 2 || len(list.Overlays) != 1 || list.Overlays[0].Founded != 12 {
		t.Fatalf("overlay listing: %+v", list)
	}
}

// FuzzParsePage feeds parsePage arbitrary pageSize, current and order
// values. Every query is either refused with a typed 400 bad_request
// or yields pageSize in [1, 10000], current ≥ 1, an order it was
// given, and a page window (current−1)·pageSize that fits in an int —
// checked here in 128-bit arithmetic, not with the guard's division —
// which pageOf then slices without panicking. Its seed corpus is
// committed under testdata/fuzz/FuzzParsePage and runs with the tier-1
// tests.
func FuzzParsePage(f *testing.F) {
	f.Fuzz(func(t *testing.T, pageSize, current, order string) {
		q := url.Values{"pageSize": {pageSize}, "current": {current}, "order": {order}}
		p, ae := parsePage(httptest.NewRequest("GET", "/v1/overlays?"+q.Encode(), nil))
		if ae != nil {
			if ae.Status != http.StatusBadRequest || ae.Code != "bad_request" || ae.Reason == "" {
				t.Fatalf("%s: refused with %+v, want a typed 400", q.Encode(), ae)
			}
			return
		}
		if p.pageSize < 1 || p.pageSize > 10000 || p.current < 1 {
			t.Fatalf("%s: accepted pageSize %d, current %d", q.Encode(), p.pageSize, p.current)
		}
		if p.descend != (order == "descend") || !(order == "" || order == "ascend" || order == "descend") {
			t.Fatalf("%s: accepted order %q as descend=%v", q.Encode(), order, p.descend)
		}
		hi, lo := bits.Mul64(uint64(p.current-1), uint64(p.pageSize))
		if hi != 0 || lo > math.MaxInt {
			t.Fatalf("%s: page window (%d-1)·%d overflows an int", q.Encode(), p.current, p.pageSize)
		}
		if got := pageOf(p, []int{0, 1, 2}); len(got) > p.pageSize {
			t.Fatalf("%s: page of %d items, pageSize %d", q.Encode(), len(got), p.pageSize)
		}
	})
}

// --- derived views and workloads over the wire -------------------------

func TestDerivedViewEndpoint(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 24, nil)

	var page struct {
		View  string   `json:"view"`
		Epoch int      `json:"epoch"`
		Edges [][2]int `json:"edges"`
		Total int      `json:"total"`
	}
	// Every named view pages; the default is the ring.
	for _, view := range []string{"", "ring", "chord", "hypercube", "debruijn"} {
		url := "/v1/overlays/" + id + "/derived?pageSize=5"
		want := view
		if view != "" {
			url += "&view=" + view
		} else {
			want = "ring"
		}
		mustStatus(t, do(t, s, "GET", url, nil, &page), http.StatusOK)
		if page.View != want || page.Total == 0 || len(page.Edges) != 5 {
			t.Fatalf("view %q: %+v", view, page)
		}
	}
	// The ring on k members has exactly k edges, paged consistently.
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/derived?view=ring&pageSize=100", nil, &page), http.StatusOK)
	if page.Total != 24 || len(page.Edges) != 24 {
		t.Fatalf("ring totals: %+v", page)
	}

	ae := mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/derived?view=torus", nil, nil), http.StatusBadRequest)
	if ae.Code != "bad_request" {
		t.Fatalf("unknown view: %+v", ae)
	}

	// After an epoch the served view reflects the new membership.
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
		map[string]any{"joins": []int{24, 25}, "leaves": []int{3}}, nil), http.StatusOK)
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/derived?view=ring&pageSize=100", nil, &page), http.StatusOK)
	if page.Epoch != 1 || page.Total != 25 {
		t.Fatalf("post-epoch ring: %+v", page)
	}
	for _, e := range page.Edges {
		if e[0] == 3 || e[1] == 3 {
			t.Fatalf("departed node 3 still appears in the served ring: %v", e)
		}
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 24, nil)

	type syncBlock struct {
		LastSync workloadBillInfo `json:"last_sync"`
	}
	var resp struct {
		Epoch      int `json:"epoch"`
		Members    int `json:"members"`
		Edges      int `json:"edges"`
		Components struct {
			Count int `json:"count"`
			syncBlock
		} `json:"components"`
		SpanningTree struct {
			Roots       []int `json:"roots"`
			ForestEdges int   `json:"forest_edges"`
			syncBlock
		} `json:"spanning_tree"`
		MIS struct {
			Size int `json:"size"`
			syncBlock
		} `json:"mis"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/workloads", nil, &resp), http.StatusOK)
	if resp.Members != 24 || resp.Epoch != 0 {
		t.Fatalf("fresh workloads: %+v", resp)
	}
	// The seed graph is the session ring: connected, so one component,
	// a spanning tree over all members, and a scratch opening bill.
	if resp.Components.Count != 1 || len(resp.SpanningTree.Roots) != 1 || resp.SpanningTree.ForestEdges != 23 {
		t.Fatalf("seed-graph results: %+v", resp)
	}
	if resp.MIS.Size == 0 || resp.Components.LastSync.Path != "workload/scratch" {
		t.Fatalf("seed-graph bills: %+v", resp)
	}

	// Epochs applied through the API sync the workloads in the same
	// supervised mutation; a small churn epoch must bill incrementally.
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
		map[string]any{"joins": []int{24}, "leaves": []int{5}}, nil), http.StatusOK)
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/workloads", nil, &resp), http.StatusOK)
	if resp.Epoch != 1 || resp.Members != 24 {
		t.Fatalf("post-epoch workloads: %+v", resp)
	}
	for name, b := range map[string]workloadBillInfo{
		"components":    resp.Components.LastSync,
		"spanning_tree": resp.SpanningTree.LastSync,
		"mis":           resp.MIS.LastSync,
	} {
		if b.Epoch != 1 || !b.Incremental || b.Path != "workload/incremental" {
			t.Fatalf("%s last sync: %+v", name, b)
		}
		if b.Affected < 1 || b.Affected > resp.Members {
			t.Fatalf("%s affected out of range: %+v", name, b)
		}
	}

	// last_sync is the newest entry of each workload's bill history,
	// however long that has grown.
	for e := 0; e < 3; e++ {
		mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
			map[string]any{"joins": []int{25 + e}, "leaves": []int{6 + e}}, nil), http.StatusOK)
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/workloads", nil, &resp), http.StatusOK)
	ov := s.lookupOverlay(id)
	for name, c := range map[string]struct {
		got   workloadBillInfo
		bills []overlay.WorkloadBill
	}{
		"components":    {resp.Components.LastSync, ov.comp.Bills()},
		"spanning_tree": {resp.SpanningTree.LastSync, ov.st.Bills()},
		"mis":           {resp.MIS.LastSync, ov.mis.Bills()},
	} {
		if len(c.bills) != 5 || c.got != workloadBill(c.bills[4]) || c.got.Epoch != 4 {
			t.Fatalf("%s last sync %+v is not the newest of %d bills", name, c.got, len(c.bills))
		}
	}

	mustStatus(t, do(t, s, "GET", "/v1/overlays/nope/workloads", nil, nil), http.StatusNotFound)
	mustStatus(t, do(t, s, "GET", "/v1/overlays/nope/derived", nil, nil), http.StatusNotFound)
}

// --- epochs and plans over the wire ------------------------------------

// TestReadBodiesBelongToOneEpoch pins that every read body is built
// from one committed state: while epochs that each grow the membership
// commit concurrently, a /derived?view=ring body's total (the ring on k
// members has k edges) is the membership of the very epoch its epoch
// field names, and an inspect body's members, epoch and clock_round are
// one bill's. Stitched from separately taken reads, a body can pair
// epoch e+1 with epoch e's edges.
func TestReadBodiesBelongToOneEpoch(t *testing.T) {
	const founders, epochs = 32, 40
	s := newServer(t, Options{})
	id := createOverlay(t, s, founders, nil)
	var founding overlayInfo
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id, nil, &founding), http.StatusOK)

	type ringBody struct{ Epoch, Total int }
	var rings []ringBody
	var infos []overlayInfo
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg, warm sync.WaitGroup
	// poll requests path until done, handing each 200 body to keep. The
	// epochs start once every poller has an answer, so they overlap
	// live reads.
	poll := func(path string, keep func(body []byte) error) {
		defer wg.Done()
		warmed := sync.OnceFunc(warm.Done)
		defer warmed()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			err := keep(rec.Body.Bytes())
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d (%s)", path, rec.Code, rec.Body.String())
			}
			if err != nil {
				errs <- err
				return
			}
			warmed()
		}
	}
	wg.Add(2)
	warm.Add(2)
	go poll("/v1/overlays/"+id+"/derived?view=ring&pageSize=1", func(body []byte) error {
		rings = append(rings, ringBody{})
		return json.Unmarshal(body, &rings[len(rings)-1])
	})
	go poll("/v1/overlays/"+id, func(body []byte) error {
		infos = append(infos, overlayInfo{})
		return json.Unmarshal(body, &infos[len(infos)-1])
	})
	warm.Wait()
	for e := 0; e < epochs; e++ {
		mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
			map[string]any{"joins": []int{founders + 2*e, founders + 2*e + 1}, "leaves": []int{e}}, nil), http.StatusOK)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	var listing struct {
		Epochs []epochSummary `json:"epochs"`
	}
	mustStatus(t, do(t, s, "GET", fmt.Sprintf("/v1/overlays/%s/epochs?pageSize=%d", id, epochs), nil, &listing), http.StatusOK)
	if len(listing.Epochs) != epochs {
		t.Fatalf("epoch listing has %d rows, want %d", len(listing.Epochs), epochs)
	}
	// stateAt is the (members, clock) of the state with e epochs applied.
	stateAt := func(e int) (int, int) {
		if e == 0 {
			return founding.Members, founding.ClockRound
		}
		return listing.Epochs[e-1].Members, listing.Epochs[e-1].Clock
	}
	for _, b := range rings {
		if members, _ := stateAt(b.Epoch); b.Total != members {
			t.Fatalf("ring body names epoch %d (%d members) but carries %d edges", b.Epoch, members, b.Total)
		}
	}
	for _, info := range infos {
		if members, clock := stateAt(info.Epoch); info.Members != members || info.ClockRound != clock {
			t.Fatalf("inspect body names epoch %d (%d members, clock %d) but carries %d members, clock %d",
				info.Epoch, members, clock, info.Members, info.ClockRound)
		}
	}
	if len(rings) == 0 || len(infos) == 0 {
		t.Fatal("the readers never completed a request")
	}
}

func TestApplyEpochAndBills(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 16, nil)

	var resp struct {
		Bill  epochSummary `json:"bill"`
		State string       `json:"state"`
	}
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
		map[string]any{"joins": []int{16, 17}, "leaves": []int{3}}, &resp), http.StatusOK)
	if resp.Bill.Epoch != 0 || resp.Bill.Joined != 2 || resp.Bill.Left != 1 || resp.Bill.Members != 17 {
		t.Fatalf("bill: %+v", resp.Bill)
	}
	if resp.State != "ready" {
		t.Fatalf("state after epoch: %q", resp.State)
	}

	// The departed node routes a typed 410 naming its epoch.
	ae := mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/lookup?from=0&to=3", nil, nil), http.StatusGone)
	if ae.Code != "departed" || ae.Epoch == nil || *ae.Epoch != 0 {
		t.Fatalf("departed lookup: %+v", ae)
	}

	// Invalid deltas are a 400 bad_epoch, not a 500.
	ae = mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
		map[string]any{"leaves": []int{3}}, nil), http.StatusBadRequest)
	if ae.Code != "bad_epoch" {
		t.Fatalf("bad epoch: %+v", ae)
	}

	var epochs struct {
		Epochs []epochSummary `json:"epochs"`
		Total  int            `json:"total"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/epochs", nil, &epochs), http.StatusOK)
	if epochs.Total != 1 || len(epochs.Epochs) != 1 || epochs.Epochs[0].Members != 17 {
		t.Fatalf("epoch listing: %+v", epochs)
	}

	var bills struct {
		Bills []billDetail `json:"bills"`
		Total int          `json:"total"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/bills", nil, &bills), http.StatusOK)
	if bills.Total != 1 || bills.Bills[0].Path == "" {
		t.Fatalf("bill listing: %+v", bills)
	}
}

func TestPlanOverTheWire(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 20, nil)

	var resp struct {
		FaultsArmed   bool           `json:"faults_armed"`
		EpochsApplied int            `json:"epochs_applied"`
		Epochs        []epochSummary `json:"epochs"`
		State         string         `json:"state"`
	}
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/plan",
		map[string]any{"spec": "epochs=3,join=0.1,leave=0.1,churnseed=11"}, &resp), http.StatusOK)
	if resp.EpochsApplied != 3 || len(resp.Epochs) != 3 || resp.FaultsArmed {
		t.Fatalf("plan response: %+v", resp)
	}
	var info overlayInfo
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id, nil, &info), http.StatusOK)
	if info.Epoch != 3 {
		t.Fatalf("session epoch after plan = %d, want 3", info.Epoch)
	}

	ae := mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/plan",
		map[string]any{"spec": "epochs=0"}, nil), http.StatusBadRequest)
	if ae.Code != "bad_plan" {
		t.Fatalf("bad plan: %+v", ae)
	}

	// Arming faults on a fast-path session is a typed rejection too:
	// the session has no message plane to fault.
	ae = mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/plan",
		map[string]any{"spec": "drop=0.2"}, nil), http.StatusBadRequest)
	if ae.Code != "bad_plan" {
		t.Fatalf("faults on fast path: %+v", ae)
	}
}

// TestPlanFaultsMessageLevel arms a fault plan over the wire on a
// message-level session and watches the adversary bill the repair
// traffic of the epochs that follow — fault injection as a
// first-class service citizen.
func TestPlanFaultsMessageLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("message-level build")
	}
	s := newServer(t, Options{})
	id := createOverlay(t, s, 16, map[string]any{"message_level": true, "accounting": "measured"})

	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/plan",
		map[string]any{"spec": "drop=0.05,seed=3,epochs=2,join=0.1,leave=0.1,churnseed=5"}, nil), http.StatusOK)

	var bills struct {
		Bills []billDetail `json:"bills"`
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id+"/bills", nil, &bills), http.StatusOK)
	var drops int64
	for _, b := range bills.Bills {
		drops += b.FaultDrops
	}
	if len(bills.Bills) != 2 || drops == 0 {
		t.Fatalf("measured faulted epochs: %d bills, %d fault drops (want 2 bills, > 0 drops)", len(bills.Bills), drops)
	}
}

// --- satellite 3: the supervisor fault paths ---------------------------

// TestPanicRollbackDegraded drives the injected panic end to end: the
// response is a typed 500, the session is rolled back bit-for-bit,
// the supervisor reports degraded, and the next good epoch heals it.
func TestPanicRollbackDegraded(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 16, nil)
	sess := s.Overlays()[0].sup.Session()
	before := snapshot(sess)

	ae := mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/inject",
		map[string]any{"panic": true}, nil), http.StatusInternalServerError)
	if ae.Code != "panic" {
		t.Fatalf("inject panic: %+v", ae)
	}

	if got := snapshot(sess); !reflect.DeepEqual(got, before) {
		t.Fatalf("session changed across a panicked mutation: %+v -> %+v", before, got)
	}
	var info overlayInfo
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id, nil, &info), http.StatusOK)
	if info.State != "degraded" || info.LastFault == "" {
		t.Fatalf("after panic: %+v", info)
	}

	// A successful mutation returns the supervisor to ready.
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs",
		map[string]any{"joins": []int{16}}, nil), http.StatusOK)
	mustStatus(t, do(t, s, "GET", "/v1/overlays/"+id, nil, &info), http.StatusOK)
	if info.State != "ready" {
		t.Fatalf("after recovery epoch: %+v", info)
	}
}

// TestDeadlineExpiry504 submits a mutation whose context is already
// dead: the worker must refuse it with a deadline error — surfacing
// as 504 — and the session must be untouched. No sleeps: an expired
// context is driven in directly.
func TestDeadlineExpiry504(t *testing.T) {
	s := newServer(t, Options{})
	id := createOverlay(t, s, 16, nil)
	sess := s.Overlays()[0].sup.Session()
	before := snapshot(sess)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/overlays/"+id+"/epochs",
		bytes.NewBufferString(`{"joins":[16]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	ae := mustStatus(t, rec, http.StatusGatewayTimeout)
	if ae.Code != "deadline" {
		t.Fatalf("expired mutation: %+v", ae)
	}
	if got := snapshot(sess); !reflect.DeepEqual(got, before) {
		t.Fatalf("session changed across an expired mutation: %+v -> %+v", before, got)
	}

	// The supervisor-level contract, without HTTP in the way: an
	// admitted job whose deadline died while queued is skipped by the
	// worker, and Do still reports the verdict (never hangs).
	sup := s.Overlays()[0].sup
	_, err := sup.Do(ctx, func(context.Context, *overlay.Session) (any, bool, error) {
		t.Error("job ran despite an expired context")
		return nil, false, nil
	})
	if !errors.Is(err, overlay.ErrInterrupted) {
		t.Fatalf("Do with dead context: %v", err)
	}
	if sup.State() != StateReady {
		t.Fatalf("state after skipped job: %v", sup.State())
	}
}

// TestQueueFull429 fills the bounded mutation queue behind a parked
// worker and pins the typed backpressure: 429, queue_full, and a
// Retry-After header. The worker is parked on a gate — no sleeps.
func TestQueueFull429(t *testing.T) {
	s := newServer(t, Options{QueueDepth: 2})
	id := createOverlay(t, s, 16, nil)
	sup := s.Overlays()[0].sup

	// Park the worker deterministically: the job signals entry, then
	// blocks on the gate.
	started := make(chan struct{})
	gate := make(chan struct{})
	if err := sup.DoAsync(context.Background(), func(context.Context, *overlay.Session) (any, bool, error) {
		close(started)
		<-gate
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	// Fill the queue to its bound.
	for i := 0; i < sup.QueueDepth(); i++ {
		if err := sup.DoAsync(context.Background(), func(context.Context, *overlay.Session) (any, bool, error) {
			return nil, false, nil
		}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}

	// The next mutation over the wire is typed backpressure.
	rec := do(t, s, "POST", "/v1/overlays/"+id+"/epochs", map[string]any{"joins": []int{16}}, nil)
	ae := mustStatus(t, rec, http.StatusTooManyRequests)
	if ae.Code != "queue_full" {
		t.Fatalf("full queue: %+v", ae)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}

	// Release the gate; once a queue slot frees, the next mutation is
	// admitted and lands (Do waits for its verdict).
	close(gate)
	for sup.QueueLen() == sup.QueueDepth() {
		runtime.Gosched()
	}
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+id+"/epochs", map[string]any{"joins": []int{16}}, nil), http.StatusOK)
}

// TestDrainCheckpointsAll is the SIGTERM path minus the signal: after
// Drain, every hosted session holds a final checkpoint, every
// supervisor reads evicted, readiness flips, and new work is refused
// with the typed draining error — while health stays green for the
// process supervisor.
func TestDrainCheckpointsAll(t *testing.T) {
	s := newServer(t, Options{})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, createOverlay(t, s, 12+i, nil))
	}
	// One session gets an epoch so drains cover non-trivial state.
	mustStatus(t, do(t, s, "POST", "/v1/overlays/"+ids[0]+"/epochs",
		map[string]any{"joins": []int{100}}, nil), http.StatusOK)
	// One worker is parked mid-job with work queued behind it: drain
	// must finish that admitted work, not drop it on the floor.
	sup0 := s.Overlays()[0].sup
	started, gate := make(chan struct{}), make(chan struct{})
	if err := sup0.DoAsync(context.Background(), func(context.Context, *overlay.Session) (any, bool, error) {
		close(started)
		<-gate
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	applied := make(chan error, 1)
	go func() {
		_, err := sup0.Do(context.Background(), func(ctx context.Context, sess *overlay.Session) (any, bool, error) {
			return s.Overlays()[0].applyOneEpoch(ctx, sess, []int{101}, nil)
		})
		applied <- err
	}()
	// The in-flight mutation is admitted before drain begins: wait for
	// it to occupy the queue (the worker is parked, so it cannot leave).
	for sup0.QueueLen() == 0 {
		runtime.Gosched()
	}
	close(gate)

	rep, err := s.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Sessions != 3 || rep.Checkpointed != 3 || rep.Uncheckpointd != 0 {
		t.Fatalf("drain report: %+v", rep)
	}
	if aerr := <-applied; aerr != nil {
		t.Fatalf("queued epoch dropped during drain: %v", aerr)
	}
	for _, ov := range s.Overlays() {
		if ov.sup.State() != StateEvicted {
			t.Fatalf("%s not evicted: %v", ov.ID, ov.sup.State())
		}
		cp := ov.sup.FinalCheckpoint()
		if cp == nil {
			t.Fatalf("%s has no final checkpoint", ov.ID)
		}
	}
	// The drained-in epoch committed before the seal.
	if got := s.Overlays()[0].sup.Session().Epoch(); got != 2 {
		t.Fatalf("session 0 epoch after drain = %d, want 2", got)
	}

	mustStatus(t, do(t, s, "GET", "/healthz", nil, nil), http.StatusOK)
	ae := mustStatus(t, do(t, s, "GET", "/readyz", nil, nil), http.StatusServiceUnavailable)
	if ae.Code != "draining" {
		t.Fatalf("readyz: %+v", ae)
	}
	rec := do(t, s, "POST", "/v1/overlays", map[string]any{"n": 8}, nil)
	ae = mustStatus(t, rec, http.StatusServiceUnavailable)
	if ae.Code != "draining" || rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("create while draining: %+v (Retry-After %q)", ae, rec.Header().Get("Retry-After"))
	}
}

// TestAdmissionCap pins the global in-flight bound: with every slot
// held, the next request is an immediate typed 503 — admission
// control, not an unbounded goroutine pile-up.
func TestAdmissionCap(t *testing.T) {
	s := newServer(t, Options{MaxInFlight: 2})
	createOverlay(t, s, 12, nil)
	// Occupy both slots from outside the handler stack.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	rec := do(t, s, "GET", "/v1/overlays", nil, nil)
	ae := mustStatus(t, rec, http.StatusServiceUnavailable)
	if ae.Code != "overloaded" || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("at the cap: %+v (Retry-After %q)", ae, rec.Header().Get("Retry-After"))
	}
	<-s.sem
	<-s.sem
	mustStatus(t, do(t, s, "GET", "/v1/overlays", nil, nil), http.StatusOK)
}

// TestBadTimeout pins the ?timeout= contract.
func TestBadTimeout(t *testing.T) {
	s := newServer(t, Options{})
	ae := mustStatus(t, do(t, s, "GET", "/v1/overlays?timeout=never", nil, nil), http.StatusBadRequest)
	if ae.Code != "bad_request" {
		t.Fatalf("bad timeout: %+v", ae)
	}
	mustStatus(t, do(t, s, "GET", "/v1/overlays?timeout=2s", nil, nil), http.StatusOK)
}
