package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"overlay"
)

// Options tune a Server. The zero value requests defaults everywhere.
type Options struct {
	// QueueDepth bounds every supervisor's mutation queue (default 8).
	// A full queue is a 429 + Retry-After.
	QueueDepth int
	// MaxInFlight bounds the requests the server works on concurrently
	// across all endpoints (default 256). At the cap, new requests get
	// an immediate 503 + Retry-After — admission control, not a wait.
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the client names
	// none (default 30s); MaxTimeout caps client-requested ?timeout=
	// values (default 5m). Expiry is a 504 with the session untouched.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBuildN caps the node count of a POST /v1/overlays build
	// (default 65536): builds run under the request deadline, so
	// admission keeps them sized to it.
	MaxBuildN int
	// Debug enables POST /v1/overlays/{id}/inject, the deterministic
	// fault hooks (panic, block/unblock) the robustness tests and the
	// smoke driver use. Off in production.
	Debug bool
}

func (o Options) withDefaults() Options {
	if o.QueueDepth == 0 {
		o.QueueDepth = 8
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 256
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxBuildN == 0 {
		o.MaxBuildN = 1 << 16
	}
	return o
}

// Overlay is one hosted overlay: a supervised session plus the
// metadata the API reports.
type Overlay struct {
	ID      string
	Name    string
	Created time.Time
	// Founded is the founding membership size (the build's survivor
	// count); Topology/Seed/MessageLevel echo the create request.
	Founded      int
	Topology     string
	Seed         uint64
	MessageLevel bool

	sup *Supervisor

	// The maintained hybrid workloads kept open over the session for
	// its whole hosted life. Synced inside the same supervised
	// mutation that commits each epoch, so every read observes a
	// workload state consistent with some committed epoch.
	comp *overlay.MaintainedComponents
	st   *overlay.MaintainedSpanningTree
	mis  *overlay.MaintainedMIS

	// Debug gate: a block job parks the supervisor worker on this
	// channel until unblock closes it — the deterministic way tests
	// and the smoke driver fill the queue without sleeps.
	gateMu sync.Mutex
	gate   chan struct{}
}

// Server hosts overlays behind the REST/JSON API. Create with New,
// mount Handler, and call Drain before exit.
type Server struct {
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}

	draining atomic.Bool

	mu       sync.RWMutex
	overlays map[string]*Overlay
	order    []string // creation order, for stable listing
	nextID   int
}

// New builds a Server.
func New(opts Options) *Server {
	s := &Server{
		opts:     opts.withDefaults(),
		mux:      http.NewServeMux(),
		overlays: map[string]*Overlay{},
	}
	s.sem = make(chan struct{}, s.opts.MaxInFlight)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("POST /v1/overlays", s.guard(s.handleCreate))
	s.mux.HandleFunc("GET /v1/overlays", s.guard(s.handleList))
	s.mux.HandleFunc("GET /v1/overlays/{id}", s.guard(s.handleInspect))
	s.mux.HandleFunc("DELETE /v1/overlays/{id}", s.guard(s.handleDelete))
	s.mux.HandleFunc("GET /v1/overlays/{id}/nodes", s.guard(s.paged(listNodes)))
	s.mux.HandleFunc("GET /v1/overlays/{id}/epochs", s.guard(s.paged(listEpochs)))
	s.mux.HandleFunc("GET /v1/overlays/{id}/bills", s.guard(s.paged(listBills)))
	s.mux.HandleFunc("POST /v1/overlays/{id}/epochs", s.guard(s.handleApplyEpoch))
	s.mux.HandleFunc("POST /v1/overlays/{id}/plan", s.guard(s.handlePlan))
	s.mux.HandleFunc("GET /v1/overlays/{id}/lookup", s.guard(s.handleLookup))
	s.mux.HandleFunc("GET /v1/overlays/{id}/derived", s.guard(s.paged(listDerived)))
	s.mux.HandleFunc("GET /v1/overlays/{id}/workloads", s.guard(s.handleWorkloads))
	if s.opts.Debug {
		s.mux.HandleFunc("POST /v1/overlays/{id}/inject", s.guard(s.handleInject))
	}
	return s
}

// Handler returns the mounted API.
func (s *Server) Handler() http.Handler { return s.mux }

// guard is the admission + deadline envelope every non-health
// endpoint runs under: a draining server refuses with a typed 503, a
// server at MaxInFlight refuses with an immediate typed 503 (never a
// queue of goroutines), and the request context gets the per-request
// deadline (?timeout=DUR, capped) every layer below polls.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, ErrDraining)
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			writeError(w, apiErr(http.StatusServiceUnavailable, "overloaded",
				fmt.Sprintf("service: %d requests already in flight", s.opts.MaxInFlight)).withRetryAfter(1))
			return
		}
		timeout := s.opts.DefaultTimeout
		if ts := r.URL.Query().Get("timeout"); ts != "" {
			d, err := time.ParseDuration(ts)
			if err != nil || d <= 0 {
				writeError(w, apiErr(http.StatusBadRequest, "bad_request",
					fmt.Sprintf("timeout=%q is not a positive Go duration", ts)))
				return
			}
			timeout = min(d, s.opts.MaxTimeout)
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// createRequest is the POST /v1/overlays body.
type createRequest struct {
	Name            string  `json:"name"`
	N               int     `json:"n"`
	Topology        string  `json:"topology"` // "line" (default) or "ring"
	Seed            uint64  `json:"seed"`
	MessageLevel    bool    `json:"message_level"`
	Workers         int     `json:"workers"`
	CapFactor       int     `json:"cap_factor"`
	Accounting      string  `json:"accounting"` // "charged" (default) or "measured"
	RebuildFraction float64 `json:"rebuild_fraction"`
	PatchRetries    int     `json:"patch_retries"`
	RebuildRetries  int     `json:"rebuild_retries"`
	// Plan optionally installs a fault plan at open (fault directives
	// of the ParsePlan grammar). Churn directives are rejected here:
	// epochs are applied through POST /v1/overlays/{id}/plan, where
	// their bills are returned.
	Plan string `json:"plan"`
}

// decodeBody decodes the JSON request body into req, or writes the
// typed 400 and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		writeError(w, apiErr(http.StatusBadRequest, "bad_request", "body is not valid JSON: "+err.Error()))
		return false
	}
	return true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.N < 1 || req.N > s.opts.MaxBuildN {
		writeError(w, apiErr(http.StatusBadRequest, "bad_request",
			fmt.Sprintf("n=%d outside [1, %d]", req.N, s.opts.MaxBuildN)))
		return
	}
	// Concurrent creates each run their own worker team, so one request
	// may ask for no more workers than the process has CPUs to run them.
	if procs := runtime.GOMAXPROCS(0); req.Workers < 0 || req.Workers > procs {
		writeError(w, apiErr(http.StatusBadRequest, "bad_request",
			fmt.Sprintf("workers=%d outside [0, %d] (0 = GOMAXPROCS)", req.Workers, procs)))
		return
	}
	var faults *overlay.FaultPlan
	if req.Plan != "" {
		plan, err := overlay.ParsePlan(req.Plan)
		if err != nil {
			writeError(w, apiErr(http.StatusBadRequest, "bad_plan", err.Error()))
			return
		}
		if plan.Churn != nil {
			writeError(w, apiErr(http.StatusBadRequest, "bad_plan",
				"churn directives are not accepted at create; POST the plan to /v1/overlays/{id}/plan"))
			return
		}
		faults = plan.Faults
	}
	acct := overlay.Charged
	switch req.Accounting {
	case "", "charged":
	case "measured":
		acct = overlay.Measured
	default:
		writeError(w, apiErr(http.StatusBadRequest, "bad_request",
			fmt.Sprintf("accounting=%q is not charged or measured", req.Accounting)))
		return
	}
	g, err := buildGraph(req.Topology, req.N)
	if err != nil {
		writeError(w, apiErr(http.StatusBadRequest, "bad_request", err.Error()))
		return
	}

	ctx := r.Context()
	opts := overlay.Options{
		Seed:         req.Seed,
		MessageLevel: req.MessageLevel,
		Workers:      req.Workers,
		CapFactor:    req.CapFactor,
		Faults:       faults,
		Interrupt:    func() bool { return ctx.Err() != nil },
	}
	res, err := overlay.BuildTree(g, &opts)
	if err != nil {
		if errors.Is(err, overlay.ErrInterrupted) || errors.Is(err, overlay.ErrEvolutionDisconnected) {
			writeError(w, err)
			return
		}
		writeError(w, apiErr(http.StatusBadRequest, "bad_request", err.Error()))
		return
	}
	if res.Aborted {
		writeError(w, apiErr(http.StatusConflict, "build_aborted", res.AbortReason))
		return
	}
	sess, err := overlay.Open(res, &overlay.SessionOptions{
		RebuildFraction: req.RebuildFraction,
		Accounting:      acct,
		PatchRetries:    req.PatchRetries,
		RebuildRetries:  req.RebuildRetries,
		Build:           opts,
	})
	if err != nil {
		writeError(w, apiErr(http.StatusBadRequest, "bad_request", err.Error()))
		return
	}

	ov := &Overlay{
		Name:         req.Name,
		Founded:      len(sess.Members()),
		Topology:     topologyName(req.Topology),
		Seed:         req.Seed,
		MessageLevel: req.MessageLevel,
	}
	wopt := &overlay.MaintainedOptions{Seed: req.Seed*2 + 1}
	for _, open := range []func() error{
		func() (err error) { ov.comp, err = overlay.OpenMaintainedComponents(sess, wopt); return },
		func() (err error) { ov.st, err = overlay.OpenMaintainedSpanningTree(sess, wopt); return },
		func() (err error) { ov.mis, err = overlay.OpenMaintainedMIS(sess, wopt); return },
	} {
		if err := open(); err != nil {
			writeError(w, apiErr(http.StatusInternalServerError, "internal", err.Error()))
			return
		}
	}
	ov.sup = NewSupervisor(sess, s.opts.QueueDepth)

	s.mu.Lock()
	s.nextID++
	ov.ID, ov.Created = fmt.Sprintf("ov-%d", s.nextID), time.Now().UTC()
	s.overlays[ov.ID] = ov
	s.order = append(s.order, ov.ID)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, s.overlayInfo(ov))
}

// topologyName canonicalizes the create request's topology.
func topologyName(t string) string {
	if t == "" {
		return "line"
	}
	return t
}

// buildGraph materializes the named input topology.
func buildGraph(topology string, n int) (*overlay.Graph, error) {
	g := overlay.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	switch topologyName(topology) {
	case "line":
	case "ring":
		if n > 2 {
			g.AddEdge(n-1, 0)
		}
	default:
		return nil, fmt.Errorf("topology=%q is not line or ring", topology)
	}
	return g, nil
}

// overlayInfo is the inspect/listing body.
type overlayInfo struct {
	ID           string `json:"id"`
	Name         string `json:"name,omitempty"`
	State        string `json:"state"`
	Topology     string `json:"topology"`
	Seed         uint64 `json:"seed"`
	MessageLevel bool   `json:"message_level"`
	Founded      int    `json:"founded"`
	Members      int    `json:"members"`
	Epoch        int    `json:"epoch"`
	ClockRound   int    `json:"clock_round"`
	NextID       int    `json:"next_id"`
	QueueLen     int    `json:"queue_len"`
	QueueDepth   int    `json:"queue_depth"`
	LastFault    string `json:"last_fault,omitempty"`
	Created      string `json:"created"`
}

func (s *Server) overlayInfo(ov *Overlay) overlayInfo {
	// One committed state for the whole body: members, epoch, clock and
	// next id always belong to the same epoch.
	cp := ov.sup.Session().Checkpoint()
	return overlayInfo{
		ID:           ov.ID,
		Name:         ov.Name,
		State:        ov.sup.State().String(),
		Topology:     ov.Topology,
		Seed:         ov.Seed,
		MessageLevel: ov.MessageLevel,
		Founded:      ov.Founded,
		Members:      len(cp.Members()),
		Epoch:        cp.Epoch(),
		ClockRound:   cp.ClockRound(),
		NextID:       cp.NextID(),
		QueueLen:     ov.sup.QueueLen(),
		QueueDepth:   ov.sup.QueueDepth(),
		LastFault:    ov.sup.LastFault(),
		Created:      ov.Created.Format(time.RFC3339),
	}
}

// pageArgs is the shared paged-listing contract: ?pageSize=&current=
// (1-based) &order=ascend|descend, defaults 20/1/ascend — the idiom
// of every list endpoint, so clients page nodes, epochs, bills, and
// overlays identically. Responses carry the page plus the total.
type pageArgs struct {
	pageSize int
	current  int
	descend  bool
}

func parsePage(r *http.Request) (pageArgs, *APIError) {
	p := pageArgs{pageSize: 20, current: 1}
	q := r.URL.Query()
	if v := q.Get("pageSize"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 10000 {
			return p, apiErr(http.StatusBadRequest, "bad_request", fmt.Sprintf("pageSize=%q outside [1, 10000]", v))
		}
		p.pageSize = n
	}
	if v := q.Get("current"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, apiErr(http.StatusBadRequest, "bad_request", fmt.Sprintf("current=%q is not a positive page number", v))
		}
		p.current = n
	}
	switch q.Get("order") {
	case "", "ascend":
	case "descend":
		p.descend = true
	default:
		return p, apiErr(http.StatusBadRequest, "bad_request", "order must be ascend or descend")
	}
	// (current-1)*pageSize is the page window's start; a current large
	// enough to overflow it would wrap negative and slice garbage.
	if p.current-1 > (math.MaxInt-p.pageSize)/p.pageSize {
		return p, apiErr(http.StatusBadRequest, "bad_request",
			fmt.Sprintf("current=%d with pageSize=%d overflows the page window", p.current, p.pageSize))
	}
	return p, nil
}

// pageOf copies the requested page out of items, in display order. An
// out-of-range page is empty (and encodes as [], never null), not an
// error — the paged-listing contract.
func pageOf[T any](p pageArgs, items []T) []T {
	n := len(items)
	lo := min((p.current-1)*p.pageSize, n)
	hi := min(lo+p.pageSize, n)
	out := make([]T, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if p.descend {
			out = append(out, items[n-1-i])
		} else {
			out = append(out, items[i])
		}
	}
	return out
}

// paged adapts a listing of one overlay to the paged-listing contract:
// it resolves the {id} path value (typed 404), parses the page window
// (typed 400) and answers with the body list builds — the page under
// the listing's own key plus "total" — or with list's typed error.
func (s *Server) paged(list func(ov *Overlay, r *http.Request, p pageArgs) (map[string]any, *APIError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ov := s.overlayOr404(w, r)
		if ov == nil {
			return
		}
		p, aerr := parsePage(r)
		var body map[string]any
		if aerr == nil {
			body, aerr = list(ov, r, p)
		}
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	p, aerr := parsePage(r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	s.mu.RLock()
	ids := append([]string(nil), s.order...)
	s.mu.RUnlock()
	infos := make([]overlayInfo, 0, p.pageSize)
	for _, id := range pageOf(p, ids) {
		if ov := s.lookupOverlay(id); ov != nil {
			infos = append(infos, s.overlayInfo(ov))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"overlays": infos, "total": len(ids)})
}

// lookupOverlay resolves an id, nil when absent.
func (s *Server) lookupOverlay(id string) *Overlay {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlays[id]
}

// overlayOr404 resolves the {id} path value or writes the typed 404.
func (s *Server) overlayOr404(w http.ResponseWriter, r *http.Request) *Overlay {
	id := r.PathValue("id")
	ov := s.lookupOverlay(id)
	if ov == nil {
		writeError(w, apiErr(http.StatusNotFound, "overlay_not_found", fmt.Sprintf("no overlay %q", id)))
		return nil
	}
	return ov
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	if ov := s.overlayOr404(w, r); ov != nil {
		writeJSON(w, http.StatusOK, s.overlayInfo(ov))
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ov := s.overlayOr404(w, r)
	if ov == nil {
		return
	}
	ov.unblock() // a parked debug gate must not wedge eviction
	ov.sup.BeginDrain()
	if err := ov.sup.AwaitDrain(r.Context()); err != nil {
		// Eviction continues in the background; the overlay leaves the
		// registry when its drain seals.
		go func() {
			ov.sup.AwaitDrain(context.Background())
			s.remove(ov.ID)
		}()
		writeError(w, fmt.Errorf("%w: eviction still draining: %w", overlay.ErrInterrupted, err))
		return
	}
	s.remove(ov.ID)
	writeJSON(w, http.StatusOK, map[string]any{"id": ov.ID, "state": StateEvicted.String()})
}

func (s *Server) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.overlays, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func listNodes(ov *Overlay, _ *http.Request, p pageArgs) (map[string]any, *APIError) {
	members := ov.sup.Session().Members()
	return map[string]any{"nodes": pageOf(p, members), "total": len(members)}, nil
}

// epochSummary is the paged epoch-listing row.
type epochSummary struct {
	Epoch           int     `json:"epoch"`
	Joined          int     `json:"joined"`
	Left            int     `json:"left"`
	Members         int     `json:"members"`
	ChurnedFraction float64 `json:"churned_fraction"`
	Rebuilt         bool    `json:"rebuilt"`
	Path            string  `json:"path"`
	Rounds          int     `json:"rounds"`
	Messages        int64   `json:"messages"`
	Clock           int     `json:"clock"`
	Attempts        int     `json:"attempts"`
	DerivedRounds   int     `json:"derived_rounds,omitempty"`
	Aborted         bool    `json:"aborted,omitempty"`
	AbortReason     string  `json:"abort_reason,omitempty"`
}

func summarize(b *overlay.EpochBill) epochSummary {
	return epochSummary{
		Epoch:           b.Epoch,
		Joined:          b.Joined,
		Left:            b.Left,
		Members:         b.Members,
		ChurnedFraction: b.ChurnedFraction,
		Rebuilt:         b.Rebuilt,
		Path:            b.Path,
		Rounds:          b.Rounds,
		Messages:        b.Messages,
		Clock:           b.Clock,
		Attempts:        b.Attempts,
		DerivedRounds:   b.DerivedRounds,
		Aborted:         b.Aborted,
		AbortReason:     b.AbortReason,
	}
}

// billDetail is the full-accounting listing row.
type billDetail struct {
	epochSummary
	MaxMessagesPerRound int    `json:"max_messages_per_round"`
	MaxMessagesTotal    int64  `json:"max_messages_total"`
	CapacityDrops       int64  `json:"capacity_drops"`
	FaultDrops          int64  `json:"fault_drops"`
	FaultDelays         int64  `json:"fault_delays"`
	ProtocolAnomalies   int64  `json:"protocol_anomalies"`
	Itemized            string `json:"itemized,omitempty"`
}

func listEpochs(ov *Overlay, _ *http.Request, p pageArgs) (map[string]any, *APIError) {
	bills := ov.sup.Session().Bills()
	page := pageOf(p, bills)
	out := make([]epochSummary, len(page))
	for i := range page {
		out[i] = summarize(&page[i])
	}
	return map[string]any{"epochs": out, "total": len(bills)}, nil
}

func listBills(ov *Overlay, _ *http.Request, p pageArgs) (map[string]any, *APIError) {
	bills := ov.sup.Session().Bills()
	page := pageOf(p, bills)
	out := make([]billDetail, len(page))
	for i := range page {
		b := &page[i]
		out[i] = billDetail{
			epochSummary:        summarize(b),
			MaxMessagesPerRound: b.MaxMessagesPerRound,
			MaxMessagesTotal:    b.MaxMessagesTotal,
			CapacityDrops:       b.CapacityDrops,
			FaultDrops:          b.FaultDrops,
			FaultDelays:         b.FaultDelays,
			ProtocolAnomalies:   b.ProtocolAnomalies,
			Itemized:            b.Itemized,
		}
	}
	return map[string]any{"bills": out, "total": len(bills)}, nil
}

// epochRequest is the POST /v1/overlays/{id}/epochs body: an explicit
// membership delta.
type epochRequest struct {
	Joins  []int `json:"joins"`
	Leaves []int `json:"leaves"`
}

// applyOneEpoch is the JobFunc body shared by the epoch and plan
// endpoints: ApplyEpochCtx under the request deadline, classifying
// the outcome for the supervisor's state machine and the error
// mapper. A committed epoch also syncs the maintained workloads —
// inside the same supervised mutation, so workload reads are always
// consistent with a committed epoch.
func (ov *Overlay) applyOneEpoch(ctx context.Context, sess *overlay.Session, joins, leaves []int) (any, bool, error) {
	bill, err := sess.ApplyEpochCtx(ctx, joins, leaves)
	if err != nil {
		if bill != nil && bill.Aborted {
			// The recovery ladder was exhausted: the session rolled
			// back and keeps serving from the pre-epoch state. That is
			// a degraded supervisor and a typed 409 — fair termination,
			// not a hang.
			return nil, true, apiErr(http.StatusConflict, "epoch_aborted", err.Error()).withEpoch(bill.Epoch)
		}
		if errors.Is(err, overlay.ErrInterrupted) {
			return nil, false, err
		}
		return nil, false, apiErr(http.StatusBadRequest, "bad_epoch", err.Error())
	}
	ov.comp.Sync()
	ov.st.Sync()
	ov.mis.Sync()
	return summarize(bill), false, nil
}

func (s *Server) handleApplyEpoch(w http.ResponseWriter, r *http.Request) {
	ov := s.overlayOr404(w, r)
	if ov == nil {
		return
	}
	var req epochRequest
	if !decodeBody(w, r, &req) {
		return
	}
	out, err := ov.sup.Do(r.Context(), func(ctx context.Context, sess *overlay.Session) (any, bool, error) {
		return ov.applyOneEpoch(ctx, sess, req.Joins, req.Leaves)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"bill": out, "state": ov.sup.State().String()})
}

// planRequest is the POST /v1/overlays/{id}/plan body: a unified
// ParsePlan specification applied to the live session — fault
// directives arm (or re-arm) the adversary for the epochs that
// follow, churn directives generate and apply that many epochs, each
// a separate supervised mutation so lookups interleave.
type planRequest struct {
	Spec string `json:"spec"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	ov := s.overlayOr404(w, r)
	if ov == nil {
		return
	}
	var req planRequest
	if !decodeBody(w, r, &req) {
		return
	}
	plan, err := overlay.ParsePlan(req.Spec)
	if err != nil {
		writeError(w, apiErr(http.StatusBadRequest, "bad_plan", err.Error()))
		return
	}
	sup := ov.sup
	if plan.Faults != nil {
		if _, err := sup.Do(r.Context(), func(_ context.Context, sess *overlay.Session) (any, bool, error) {
			if err := sess.SetFaults(plan.Faults); err != nil {
				return nil, false, apiErr(http.StatusBadRequest, "bad_plan", err.Error())
			}
			return nil, false, nil
		}); err != nil {
			writeError(w, err)
			return
		}
	}
	applied := []epochSummary{}
	if plan.Churn != nil {
		// The plan's RebuildFraction override is a CLI-open-time knob;
		// a hosted session's threshold was fixed at create.
		for e := 0; e < plan.Churn.Epochs; e++ {
			out, err := sup.Do(r.Context(), func(ctx context.Context, sess *overlay.Session) (any, bool, error) {
				joins, leaves := plan.Churn.Epoch(e, sess.Members(), sess.NextID())
				return ov.applyOneEpoch(ctx, sess, joins, leaves)
			})
			if err != nil {
				// Typed error with partial progress: the committed
				// epochs stay committed (each was its own mutation).
				ae := MapError(err)
				writeJSON(w, ae.Status, map[string]any{
					"error":          ae,
					"faults_armed":   plan.Faults != nil,
					"epochs_applied": len(applied),
					"epochs":         applied,
				})
				return
			}
			applied = append(applied, out.(epochSummary))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"faults_armed":   plan.Faults != nil,
		"epochs_applied": len(applied),
		"epochs":         applied,
		"state":          sup.State().String(),
	})
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	ov := s.overlayOr404(w, r)
	if ov == nil {
		return
	}
	q := r.URL.Query()
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil {
		writeError(w, apiErr(http.StatusBadRequest, "bad_request", "lookup needs integer from= and to= parameters"))
		return
	}
	// Deadline-aware even though lookups are fast and never wait on an
	// epoch: a request that arrived already expired gets its typed
	// deadline verdict, not a path nobody is waiting for.
	if err := r.Context().Err(); err != nil {
		writeError(w, fmt.Errorf("%w: %w", overlay.ErrInterrupted, err))
		return
	}
	path, err := ov.sup.Session().RouteLookup(from, to)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": path, "hops": len(path) - 1})
}

// listDerived serves GET /v1/overlays/{id}/derived?view=NAME: the
// named Section 1.4 derived view of the session's committed state, as
// global-identifier edge pairs, paged. The edges and the epoch in the
// body come from one checkpoint, which computes each view once, so
// concurrent clients polling a view between epochs share one
// computation.
func listDerived(ov *Overlay, r *http.Request, p pageArgs) (map[string]any, *APIError) {
	cp := ov.sup.Session().Checkpoint()
	view := r.URL.Query().Get("view")
	if view == "" {
		view = "ring"
	}
	var edges [][2]int
	switch view {
	case "ring":
		edges = cp.Ring()
	case "chord":
		edges = cp.Chord()
	case "hypercube":
		edges = cp.Hypercube()
	case "debruijn":
		edges = cp.DeBruijn()
	default:
		return nil, apiErr(http.StatusBadRequest, "bad_request",
			fmt.Sprintf("view=%q is not ring, chord, hypercube, or debruijn", view))
	}
	return map[string]any{
		"view": view, "epoch": cp.Epoch(), "edges": pageOf(p, edges), "total": len(edges),
	}, nil
}

// workloadBillInfo is the last-sync accounting block of the workloads
// endpoint.
type workloadBillInfo struct {
	Epoch       int    `json:"epoch"`
	Incremental bool   `json:"incremental"`
	Affected    int    `json:"affected"`
	Path        string `json:"path"`
	Rounds      int    `json:"rounds"`
	Messages    int64  `json:"messages"`
}

func workloadBill(b overlay.WorkloadBill) workloadBillInfo {
	return workloadBillInfo{
		Epoch:       b.Epoch,
		Incremental: b.Incremental,
		Affected:    b.Affected,
		Path:        b.Path,
		Rounds:      b.Rounds,
		Messages:    b.Messages,
	}
}

// handleWorkloads serves GET /v1/overlays/{id}/workloads: the current
// results and last-sync bills of the three maintained hybrid
// workloads.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	ov := s.overlayOr404(w, r)
	if ov == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   ov.comp.Epoch(),
		"members": len(ov.comp.Members()),
		"edges":   len(ov.comp.GraphEdges()),
		"components": map[string]any{
			"count":     ov.comp.NumComponents(),
			"last_sync": workloadBill(ov.comp.LastBill()),
		},
		"spanning_tree": map[string]any{
			"roots":        ov.st.Roots(),
			"forest_edges": len(ov.st.Forest()),
			"last_sync":    workloadBill(ov.st.LastBill()),
		},
		"mis": map[string]any{
			"size":      len(ov.mis.Set()),
			"last_sync": workloadBill(ov.mis.LastBill()),
		},
	})
}

// injectRequest is the debug fault-hook body (Options.Debug only).
type injectRequest struct {
	// Panic submits a mutation that panics — exercising the recover →
	// rollback → degraded path end to end.
	Panic bool `json:"panic"`
	// Block parks the supervisor worker on a gate until Unblock;
	// tests fill the queue and pin deadline behavior with it, no
	// sleeps involved.
	Block   bool `json:"block"`
	Unblock bool `json:"unblock"`
}

// unblock releases a parked gate, if any.
func (ov *Overlay) unblock() {
	ov.gateMu.Lock()
	defer ov.gateMu.Unlock()
	if ov.gate != nil {
		close(ov.gate)
		ov.gate = nil
	}
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	ov := s.overlayOr404(w, r)
	if ov == nil {
		return
	}
	var req injectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	switch {
	case req.Panic:
		_, err := ov.sup.Do(r.Context(), func(context.Context, *overlay.Session) (any, bool, error) {
			panic("injected fault: panic-in-epoch")
		})
		// The panic comes back as the job error: report it truthfully
		// (500 panic) — the session rolled back and the supervisor is
		// degraded, which the caller can read off GET /v1/overlays/{id}.
		writeError(w, err)
	case req.Block:
		ov.gateMu.Lock()
		if ov.gate == nil {
			ov.gate = make(chan struct{})
		}
		gate := ov.gate
		ov.gateMu.Unlock()
		if err := ov.sup.DoAsync(context.Background(), func(context.Context, *overlay.Session) (any, bool, error) {
			<-gate
			return "unblocked", false, nil
		}); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "worker blocked on gate"})
	case req.Unblock:
		ov.unblock()
		writeJSON(w, http.StatusOK, map[string]string{"status": "gate released"})
	default:
		writeError(w, apiErr(http.StatusBadRequest, "bad_request", "inject needs panic, block, or unblock"))
	}
}

// DrainReport summarizes a completed drain.
type DrainReport struct {
	Sessions      int `json:"sessions"`
	Checkpointed  int `json:"checkpointed"`
	EpochsServed  int `json:"epochs_served"`
	MembersTotal  int `json:"members_total"`
	Uncheckpointd int `json:"uncheckpointed,omitempty"`
}

// Drain is the graceful-shutdown sweep (SIGTERM in cmd/overlayd):
// stop admitting (readyz flips 503, every data endpoint refuses with
// the typed draining error), let every supervisor finish its admitted
// queue, checkpoint every session, and report. Hosted overlays whose
// drain cannot finish before ctx expires are counted uncheckpointed
// and the context error is returned — the caller decides whether
// that's a dirty exit.
func (s *Server) Drain(ctx context.Context) (DrainReport, error) {
	s.draining.Store(true)
	s.mu.RLock()
	ovs := make([]*Overlay, 0, len(s.order))
	for _, id := range s.order {
		ovs = append(ovs, s.overlays[id])
	}
	s.mu.RUnlock()
	rep := DrainReport{Sessions: len(ovs)}
	var firstErr error
	for _, ov := range ovs {
		ov.unblock()
		ov.sup.BeginDrain()
	}
	for _, ov := range ovs {
		if err := ov.sup.AwaitDrain(ctx); err != nil {
			rep.Uncheckpointd++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rep.Checkpointed++
		cp := ov.sup.Session().Checkpoint()
		rep.EpochsServed += cp.Epoch()
		rep.MembersTotal += len(cp.Members())
	}
	return rep, firstErr
}

// Overlays returns the hosted overlays in creation order (test and
// daemon introspection surface).
func (s *Server) Overlays() []*Overlay {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Overlay, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.overlays[id])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Created.Before(out[j].Created) })
	return out
}
