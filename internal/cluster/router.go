package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
)

// Router is the coordinator's kbtable.ShardExecutor: it routes each
// shard's probe and scatter leg to a remote owner (then any replica)
// over the /v1 cluster API. A leg whose every candidate fails returns
// an error, which makes the engine re-run that leg on the
// coordinator's own resident shard; the engine also re-runs any leg
// whose partial fails its checks — the router only ever has to be
// fast, never correct. Its local_fallback counter therefore counts
// transport failures only. Requests carry the WAL sequence the serving
// layer pinned (api.SeqFrom), so a node that has not applied exactly
// that state refuses the leg (409 stale_epoch) rather than answer from
// a different snapshot.
type Router struct {
	nodeID  string
	members *Membership
	// SeqFn reports the coordinator's own applied WAL sequence for
	// Health (nil = 0).
	SeqFn func() uint64

	mu      sync.Mutex
	clients map[string]*client.Client
	stats   map[string]*nodeStats
}

type nodeStats struct {
	remote   atomic.Uint64
	fallback atomic.Uint64
	mu       sync.Mutex
	healthy  bool
	lastErr  string
}

// NewRouter returns a router over a static membership. nodeID names
// the coordinator itself in health output.
func NewRouter(nodeID string, m *Membership) *Router {
	r := &Router{
		nodeID:  nodeID,
		members: m,
		clients: make(map[string]*client.Client),
		stats:   make(map[string]*nodeStats),
	}
	for _, mem := range m.Members {
		r.clients[mem.ID] = client.New(mem.Addr)
		r.stats[mem.ID] = &nodeStats{healthy: true}
	}
	return r
}

// ProbeShard runs shard si's planner-probe leg on its first reachable
// candidate node.
func (r *Router) ProbeShard(ctx context.Context, si int, query string, opts kbtable.SearchOptions) (kbtable.ShardPlanStats, error) {
	seq, _ := api.SeqFrom(ctx)
	req := &api.ClusterProbeRequest{
		Shard: si, Query: query, Seq: seq,
		K: opts.K, MaxRows: opts.MaxRowsPerTable,
	}
	var out kbtable.ShardPlanStats
	err := r.leg(ctx, si, func(cl *client.Client) error {
		resp, err := cl.ProbeShard(ctx, req)
		if err != nil {
			return err
		}
		out = resp.Stats
		return nil
	})
	return out, err
}

// ScatterShard runs shard si's enumerate→aggregate leg on its first
// reachable candidate node.
func (r *Router) ScatterShard(ctx context.Context, si int, algorithm kbtable.Algorithm, query string, opts kbtable.SearchOptions) (*kbtable.ShardPartial, error) {
	seq, _ := api.SeqFrom(ctx)
	req := &api.ClusterScatterRequest{
		Shard: si, Query: query, Algorithm: api.AlgorithmName(algorithm), Seq: seq,
		K: opts.K, MaxRows: opts.MaxRowsPerTable,
	}
	var out *kbtable.ShardPartial
	err := r.leg(ctx, si, func(cl *client.Client) error {
		resp, err := cl.ScatterShard(ctx, req)
		if err != nil {
			return err
		}
		out = resp.Partial
		return nil
	})
	return out, err
}

// leg tries shard si's candidates in membership order (owners, then
// replicas) and records per-node outcomes. When every candidate fails,
// the designated (first) owner is charged with the local fallback the
// engine is about to perform.
func (r *Router) leg(ctx context.Context, si int, call func(*client.Client) error) error {
	cands := r.members.Owners(si)
	if len(cands) == 0 {
		return fmt.Errorf("cluster: no member owns shard %d", si)
	}
	var lastErr error
	for _, mem := range cands {
		st := r.stats[mem.ID]
		err := call(r.clients[mem.ID])
		if err == nil {
			st.remote.Add(1)
			st.setHealth(true, "")
			return nil
		}
		st.setHealth(false, err.Error())
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	r.stats[cands[0].ID].fallback.Add(1)
	return fmt.Errorf("cluster: shard %d: all %d candidates failed: %w", si, len(cands), lastErr)
}

func (s *nodeStats) setHealth(healthy bool, errMsg string) {
	s.mu.Lock()
	s.healthy, s.lastErr = healthy, errMsg
	s.mu.Unlock()
}

// Health is the coordinator's /v1/healthz cluster section (wire it as
// serve.Config.Cluster).
func (r *Router) Health() *api.ClusterHealth {
	ch := &api.ClusterHealth{Role: "coordinator", NodeID: r.nodeID}
	if r.SeqFn != nil {
		ch.Seq = r.SeqFn()
	}
	for _, mem := range r.members.Members {
		st := r.stats[mem.ID]
		st.mu.Lock()
		healthy, lastErr := st.healthy, st.lastErr
		st.mu.Unlock()
		role := "node"
		if mem.Replica {
			role = "replica"
		}
		ch.Nodes = append(ch.Nodes, api.ClusterNodeHealth{
			ID: mem.ID, Addr: mem.Addr, Role: role, Shards: mem.Shards,
			Healthy: healthy, LastError: lastErr,
			Remote: st.remote.Load(), LocalFallback: st.fallback.Load(),
		})
	}
	return ch
}
