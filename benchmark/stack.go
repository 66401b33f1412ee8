package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/cluster"
	"kbtable/internal/serve"
)

// stack is the system under test, started in-process: the real serve.Server
// behind net/http on a loopback TCP listener with kbserve's defaults
// (algorithm "auto", result cache 512, 50 rows per table, d 3, workers =
// GOMAXPROCS), and on cluster_scatter additionally one owner node per
// shard and a cluster.Router as the coordinator's distributor.
type stack struct {
	url     string
	srv     *serve.Server
	router  *cluster.Router
	servers []*http.Server
	errs    chan error
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.servers = append(s.servers, hs)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.errs <- err
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack serves su's recovered engine. With a tracer, every layer
// boundary reachable from outside is wrapped to record spans.
func startStack(cfg runConfig, su *setUp, tr *tracer) (*stack, error) {
	w := cfg.workload
	// One slot per server: a Serve error is reported, never blocks.
	s := &stack{errs: make(chan error, 1+w.shards)}
	sc := serve.Config{Engine: su.eng, D: indexD, DefaultAlgorithm: "auto"}
	if tr != nil {
		sc.Engine = tracedEngine{Engine: su.eng, tr: tr}
	}
	if w.rw {
		sc.Store, sc.CheckpointEvery = su.store, cfg.scale.checkpointEvery
	}
	if w.cluster {
		if err := s.startNodes(cfg, su, tr); err != nil {
			s.close()
			return nil, err
		}
		sc.Distributor, sc.Cluster = kbtable.ShardExecutor(s.router), s.router.Health
		if tr != nil {
			sc.Distributor = tracedExecutor{next: s.router, tr: tr}
		}
	}
	s.srv = serve.New(sc)
	h := s.srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr, "serve.handler", roleHandler, roleRoundTrip)
	}
	var err error
	if s.url, err = s.listen(h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startNodes starts one owner node per shard. A node builds its partial
// engine from the graph the snapshot holds and replays the WAL tail
// through its own update pipeline, as a follower catching up does: the
// coordinator pins every leg to its WAL sequence, and a node only serves
// legs at exactly the sequence it has applied.
func (s *stack) startNodes(cfg runConfig, su *setUp, tr *tracer) error {
	w := cfg.workload
	spec := ""
	for i := 0; i < w.shards; i++ {
		eng, err := kbtable.NewEngine(su.built.Graph(), kbtable.EngineOptions{D: indexD, Shards: w.shards, OwnedShards: []int{i}})
		if err != nil {
			return err
		}
		node := cluster.NewNode(serve.Config{Engine: eng, D: indexD, DefaultAlgorithm: "auto", ReadOnly: true}, "node", fmt.Sprintf("n%d", i))
		for j, u := range su.tail {
			if err := node.Apply(kbtable.WALRecord{Seq: uint64(j + 1), Ops: u.Ops}); err != nil {
				return fmt.Errorf("node %d: replay tail record %d: %w", i, j+1, err)
			}
		}
		h := node.Handler()
		if tr != nil {
			h = traceHandler(h, tr, "node.handler", roleNodeHandler(i), roleLeg(i))
		}
		url, err := s.listen(h)
		if err != nil {
			return err
		}
		spec += fmt.Sprintf("n%d %s shards=%d;", i, url, i)
	}
	members, err := cluster.ParseMembership(spec)
	if err != nil {
		return err
	}
	s.router = cluster.NewRouter("c0", members)
	return nil
}

// close stops every server and waits for its connections to drain. A
// second call does nothing.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	for _, hs := range s.servers {
		if err := hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	s.servers = nil
	select {
	case err := <-s.errs:
		if first == nil {
			first = err
		}
	default:
	}
	return first
}

// health reads the server's counters over the API.
func (s *stack) health(ctx context.Context) (*api.HealthResponse, error) {
	return client.New(s.url).Health(ctx)
}
