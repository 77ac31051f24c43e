package main

import (
	"net/http"
	"net/http/httptest"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/serve"
)

// Probe surface, layer serve: serve.New with a zero-value Config over
// GraphSource or WatchSource, mounted at the v1 path behind a loopback
// listener, plus the server's PlanCache statistics.

type served struct {
	srv *serve.Server
	ts  *httptest.Server
}

func probeServeGraph(g *commongraph.EvolvingGraph) *served {
	return listen(serve.New(serve.GraphSource(g), serve.Config{}))
}

func probeServeWatch(w *commongraph.Watcher) *served {
	return listen(serve.New(serve.WatchSource(w), serve.Config{}))
}

func listen(srv *serve.Server) *served {
	mux := http.NewServeMux()
	mux.Handle(apiv1.RunPath, srv)
	return &served{srv: srv, ts: httptest.NewServer(mux)}
}

// client dials the server with a transport of its own, so the caller
// keeps one connection and nothing is shared between set-ups.
func (s *served) client() (*apiv1.Client, error) {
	return apiv1.Dial(s.ts.URL, apiv1.WithHTTPClient(&http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}))
}

// icg returns the from-scratch common-graph solves and the reuses
// (derived from a containing window, or shared exactly) so far.
func (s *served) icg() (solves, reused uint64) {
	st := s.srv.PlanCache().Stats()
	return st.Solves, st.Derives + st.Shared
}

func (s *served) close() { s.ts.Close() }
