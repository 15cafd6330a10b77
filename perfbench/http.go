package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"exptrain/client"
)

// spanHeader carries the client span's id and request id to the
// server, so the server-side spans of one request join its trace.
const spanHeader = "X-Perfbench-Span"

// tracedTransport copies the span of a request's context into
// spanHeader.
type tracedTransport struct{ next http.RoundTripper }

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref := spanOf(r.Context()); ref.id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(ref.id, 10)+"/"+strconv.FormatUint(ref.req, 10))
	}
	return t.next.RoundTrip(r)
}

// tracedHandler is the benchmark's middleware around the service's
// ServeHTTP: one span per request, named after its route, carrying the
// response status.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var parent, req uint64
	if v := r.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		parent, _ = strconv.ParseUint(a, 10, 64)
		req, _ = strconv.ParseUint(b, 10, 64)
	}
	sp := h.tr.start("service."+route(r), parent, req)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), sp)))
	sp.Status = sw.status
	h.tr.finish(sp, nil)
}

// route names a v1 request by its last path element and method.
func route(r *http.Request) string {
	p := strings.TrimSuffix(r.URL.Path, "/")
	last := p[strings.LastIndexByte(p, '/')+1:]
	switch {
	case p == "/v1/sessions" && r.Method == http.MethodPost:
		return "create"
	case last == "next", last == "submit", last == "belief", last == "rounds", last == "healthz":
		return last
	case last == "submissions":
		return "enqueue"
	case strings.Contains(p, "/submissions/"):
		return "ticket"
	default:
		return "other"
	}
}

// statusWriter records the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// errKind classifies an operation's error by the v1 error envelope's
// kind; errors that never reached the envelope get a kind of their own.
func errKind(err error) string {
	var e *client.Error
	switch {
	case errors.As(err, &e):
		return e.Kind
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, errNotDurable):
		return "not_durable"
	default:
		return "transport"
	}
}

// errNotDurable marks a window whose last round never reached the log.
var errNotDurable = errors.New("window not durable in time")

// tally counts operations attempted and failed, failures by kind.
type tally struct {
	mu sync.Mutex
	// attempted, failed and kinds are guarded by mu.
	attempted, failed int
	kinds             map[string]int
}

func newTally() *tally { return &tally{kinds: make(map[string]int)} }

// add records one operation's outcome.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.kinds[errKind(err)]++
	}
}

// counts returns attempted, failed and the failure kinds as
// "kind=n" strings in kind order.
func (t *tally) counts() (attempted, failed int, kinds []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, n := range t.kinds {
		kinds = append(kinds, k+"="+strconv.Itoa(n))
	}
	sort.Strings(kinds)
	return t.attempted, t.failed, kinds
}
