package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"xmlac"
	"xmlac/internal/trace"
)

// Request-scoped observability: every request gets a trace ID — honored from
// a well-formed X-Request-Id header or generated — that is echoed in the
// response, attached to the evaluation's tracing context (so spans in
// GET /debug/trace correlate with access-log lines) and logged in the
// structured access line the middleware emits after the handler returns.

// requestIDHeader is the header carrying the request-scoped trace ID, both
// inbound (honored) and outbound (echoed).
const requestIDHeader = "X-Request-Id"

// spanIDHeader carries the span ID of the client evaluation that caused the
// request (stamped by internal/remote alongside the trace ID). The server
// records its request spans with it as their parent, so the client's merged
// Chrome trace links server fetches under the evaluation they served.
const spanIDHeader = "X-Xmlac-Span-Id"

type requestIDKey struct{}

// requestID returns the trace ID stored in the request context by the
// observability middleware ("" outside it, e.g. in direct handler tests).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID generates a 16-hex-digit random trace ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000" // the ID is a correlation aid, not a secret
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts client-supplied IDs that are safe to echo and log:
// 1-64 characters of [A-Za-z0-9_.-]. Anything else is replaced by a
// generated ID instead of being reflected into headers and logs.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the response status and body size for the access log
// while passing streaming writes (and flushes) through.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush passes through to the underlying writer when it can flush, so the
// streaming view path keeps its mid-stream flushes through the wrapper.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// observe is the outermost middleware: it counts the request, assigns the
// trace ID, echoes it, and emits one structured access-log line when the
// handler returns. The span and the log line are recorded after the handler
// returns, so they become visible then, not when the client has the
// response; the observed counter marks that point.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		// The injected clock times the request (not time.Now directly), so the
		// access-log duration is deterministic under the fake clock in tests.
		start := s.opts.clock.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		elapsed := s.opts.clock.Now().Sub(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler returned without writing anything
		}
		if name := serverSpanName(r.URL.Path); name != "" && s.trace != nil {
			span := xmlac.TraceSpan{
				TraceID: id,
				SpanID:  trace.NewSpanID(),
				Name:    name,
				Start:   start,
				Dur:     elapsed,
				Bytes:   sw.bytes,
				Detail:  r.Method + " " + r.URL.Path + " -> " + strconv.Itoa(status),
			}
			// A well-formed client span header makes this span a child of the
			// evaluation that issued the request; anything else stays unlinked
			// rather than reflecting hostile bytes into the export.
			if parent := r.Header.Get(spanIDHeader); validRequestID(parent) {
				span.Parent = parent
			}
			s.trace.RecordSpan(span)
		}
		attrs := []any{
			slog.String("trace_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", elapsed),
		}
		if subject := r.URL.Query().Get("subject"); subject != "" {
			attrs = append(attrs, slog.String("subject", subject))
		}
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", toAttrs(attrs)...)
		s.observedMu.Lock()
		s.observed++
		s.observedCond.Broadcast()
		s.observedMu.Unlock()
	})
}

// toAttrs converts the []any built above (all slog.Attr values) for LogAttrs.
func toAttrs(in []any) []slog.Attr {
	out := make([]slog.Attr, len(in))
	for i, a := range in {
		out[i] = a.(slog.Attr)
	}
	return out
}

// serverSpanName maps a request path to the span name recorded in the trace
// ring, or "" for surfaces that would only flood the ring (metric scrapes,
// debug endpoints, health checks, registrations).
func serverSpanName(path string) string {
	switch {
	case strings.HasSuffix(path, "/blob"):
		return "server.fetch"
	case strings.HasSuffix(path, "/manifest"):
		return "server.manifest"
	case strings.HasSuffix(path, "/hashes"):
		return "server.hash-fetch"
	case strings.HasSuffix(path, "/delta"):
		return "server.delta"
	case strings.HasSuffix(path, "/view"):
		return "server.view"
	}
	return ""
}

// handleDebugTrace serves retained spans of the server's trace ring as JSONL,
// oldest first. Query parameters:
//
//	n=N        keep only the newest N matching spans (absent or 0: all)
//	id=T       keep only spans of trace ID T (an X-Request-Id value) — how a
//	           remote client fetches the server-side half of its own trace
//	           for a merged view
//	since=S    keep only spans recorded after sequence number S (every span
//	           carries its "seq", so pollers resume where they left off)
//
// The filters combine; the newest-N cap applies after the id/since matches.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		httpError(w, http.StatusNotFound, "tracing is disabled on this server")
		return
	}
	q := r.URL.Query()
	var f xmlac.TraceFilter
	if raw := q.Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, "invalid %q query parameter: %q", "n", raw)
			return
		}
		f.N = parsed
	}
	if raw := q.Get("since"); raw != "" {
		parsed, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid %q query parameter: %q", "since", raw)
			return
		}
		f.Since = parsed
	}
	f.TraceID = q.Get("id")
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.trace.WriteJSONLFiltered(w, f)
}
