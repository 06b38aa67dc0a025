package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"smartcrawl/internal/deepweb"
	"smartcrawl/internal/deepweb/httpapi"
	"smartcrawl/internal/engine"
	"smartcrawl/internal/hidden"
	"smartcrawl/internal/tokenize"
)

// hiddenServer serves a hidden table over loopback HTTP the way a remote
// interface would: ranked (non-conjunctive) search, top-k yelpK. It is
// built before a crawl starts and is not part of the crawl's set-up.
type hiddenServer struct {
	url    string
	http   *http.Server
	served chan error
}

// startServer loads the hidden table and serves it. wrap, when non-nil,
// decorates the searcher handed to httpapi.NewServer.
func startServer(hiddenPath string, rankColumn int, wrap func(deepweb.Searcher) deepweb.Searcher) (*hiddenServer, error) {
	t, err := engine.LoadTable(hiddenPath, "hidden")
	if err != nil {
		return nil, err
	}
	tk := tokenize.New()
	var s deepweb.Searcher = hidden.New(t, tk, yelpK, hidden.RankByNumericColumn(rankColumn), hidden.ModeRanked)
	if wrap != nil {
		s = wrap(s)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serving hidden table: %w", err)
	}
	srv := &hiddenServer{
		url:    "http://" + ln.Addr().String(),
		http:   &http.Server{Handler: httpapi.NewServer(s, tk, nil).Handler()},
		served: make(chan error, 1),
	}
	go func() { srv.served <- srv.http.Serve(ln) }()
	return srv, nil
}

// close shuts the server down and waits for it to stop serving.
func (s *hiddenServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	// The crawl's client keeps idle keep-alive connections in the default
	// transport; drop them with the server.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	return err
}
