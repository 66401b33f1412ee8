package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kbtable"
	"kbtable/internal/api"
	"kbtable/internal/client"
	"kbtable/internal/serve"
)

// Node wraps a serve.Server as a cluster member: it adds the
// coordinator-facing /v1/cluster/probe and /v1/cluster/scatter
// endpoints and (on followers) a WAL puller that replays the
// coordinator's committed records through the server's full update
// pipeline. The node's replication cursor — the WAL sequence its
// engine state reflects — is the consistency anchor: a leg pinned to a
// different sequence is refused with 409 stale_epoch, and the
// RWMutex holding the cursor makes applying a record and executing a
// leg mutually exclusive, so a leg never observes a half-applied
// state.
type Node struct {
	role string
	id   string
	srv  *serve.Server

	// mu guards cursor: read-held across seq check + leg execution,
	// write-held across apply + cursor advance.
	mu     sync.RWMutex
	cursor uint64

	// Replication state (followers only).
	pullSource string
	pullStop   chan struct{}
	pullDone   chan struct{}
	sourceSeq  atomic.Uint64
	pulls      atomic.Uint64
	records    atomic.Uint64
	pullErrs   atomic.Uint64
	lastErrMu  sync.Mutex
	lastErr    string
}

// NewNode builds the serve.Server from cfg and wraps it as a cluster
// member with the given role ("node" for a shard owner, "replica") and
// id. cfg.Cluster is overridden to report this node's state.
func NewNode(cfg serve.Config, role, id string) *Node {
	n := &Node{role: role, id: id}
	cfg.Cluster = n.Health
	n.srv = serve.New(cfg)
	n.srv.SetHandler(n.Handler())
	return n
}

// Server returns the wrapped serve.Server (for shutdown and
// checkpoint hooks).
func (n *Node) Server() *serve.Server { return n.srv }

// Seq returns the node's applied WAL cursor.
func (n *Node) Seq() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.cursor
}

// Handler serves the node's full HTTP surface: the regular /v1 API
// plus the coordinator-facing cluster leg endpoints.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/"+api.Version+"/cluster/probe", n.handleProbe)
	mux.HandleFunc("/"+api.Version+"/cluster/scatter", n.handleScatter)
	mux.Handle("/", n.srv.Handler())
	return mux
}

// pinned reports whether the node's applied cursor is exactly the WAL
// sequence a leg is pinned to, answering 409 stale_epoch when it is not:
// a leg must never compute on a different snapshot than the coordinator
// gathers on. Callers hold n.mu.
func (n *Node) pinned(w http.ResponseWriter, seq uint64) bool {
	if seq != n.cursor {
		serve.WriteError(w, http.StatusConflict, api.CodeStaleEpoch,
			fmt.Sprintf("node is at seq %d, leg pinned seq %d", n.cursor, seq))
		return false
	}
	return true
}

func (n *Node) handleProbe(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterProbeRequest
	if !serve.DecodePost(w, r, 1<<20, &req) {
		return
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.pinned(w, req.Seq) {
		return
	}
	eng, _ := n.srv.CurrentEngine()
	stats, err := eng.ProbeShard(r.Context(), req.Shard, req.Query, legOptions(req.K, req.MaxRows))
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, &api.ClusterProbeResponse{Shard: req.Shard, Seq: n.cursor, Stats: stats})
}

func (n *Node) handleScatter(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterScatterRequest
	if !serve.DecodePost(w, r, 1<<20, &req) {
		return
	}
	algo, err := api.ParseAlgorithm(req.Algorithm)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.pinned(w, req.Seq) {
		return
	}
	eng, _ := n.srv.CurrentEngine()
	partial, err := eng.ScatterShard(r.Context(), req.Shard, algo, req.Query, legOptions(req.K, req.MaxRows))
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, &api.ClusterScatterResponse{Shard: req.Shard, Seq: n.cursor, Partial: partial})
}

// legOptions reconstructs the options a leg runs under. Only the
// fields the wire carries cross the cluster; both sides' engines fill
// in identical defaults for the rest, which is what keeps a remote leg
// bit-identical to the coordinator-local one. Sampling options are not
// among them, so a coordinator never sends a sampled query's legs.
func legOptions(k, maxRows int) kbtable.SearchOptions {
	return kbtable.SearchOptions{K: k, MaxRowsPerTable: maxRows}
}

// Apply replays one shipped WAL record through the server's full
// update pipeline and advances the cursor — atomically with respect to
// leg execution.
func (n *Node) Apply(rec kbtable.WALRecord) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rec.Seq <= n.cursor {
		return nil // already applied (duplicate pull)
	}
	if rec.Seq != n.cursor+1 {
		return fmt.Errorf("cluster: WAL gap: have seq %d, got record %d", n.cursor, rec.Seq)
	}
	if _, err := n.srv.Apply(kbtable.Update{Ops: rec.Ops}); err != nil {
		return err
	}
	n.cursor = rec.Seq
	return nil
}

// StartReplication begins pulling committed WAL records from source
// (the coordinator's base URL) every interval, replaying each through
// Apply. Call StopReplication to end it.
func (n *Node) StartReplication(source string, interval time.Duration) {
	n.pullSource = normalizeAddr(source)
	n.pullStop = make(chan struct{})
	n.pullDone = make(chan struct{})
	go n.pullLoop(client.New(n.pullSource), interval)
}

// StopReplication stops the puller and waits for it to exit.
func (n *Node) StopReplication() {
	if n.pullStop == nil {
		return
	}
	close(n.pullStop)
	<-n.pullDone
	n.pullStop = nil
}

func (n *Node) pullLoop(cl *client.Client, interval time.Duration) {
	defer close(n.pullDone)
	for {
		more := n.pullOnce(cl)
		if more {
			// The batch was truncated at the origin's limit: drain the
			// backlog before sleeping.
			select {
			case <-n.pullStop:
				return
			default:
				continue
			}
		}
		select {
		case <-n.pullStop:
			return
		case <-time.After(interval):
		}
	}
}

// pullOnce performs one replication round and reports whether the
// origin has more records ready.
func (n *Node) pullOnce(cl *client.Client) bool {
	n.pulls.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := cl.WALSegments(ctx, n.Seq(), 0)
	if err != nil {
		n.pullErrs.Add(1)
		n.setLastErr(err.Error())
		return false
	}
	n.sourceSeq.Store(resp.LastSeq)
	for _, rec := range resp.Records {
		if err := n.Apply(rec); err != nil {
			n.pullErrs.Add(1)
			n.setLastErr(err.Error())
			return false
		}
		n.records.Add(1)
	}
	n.setLastErr("")
	return resp.More
}

func (n *Node) setLastErr(msg string) {
	n.lastErrMu.Lock()
	n.lastErr = msg
	n.lastErrMu.Unlock()
}

// Health is the node's /v1/healthz cluster section.
func (n *Node) Health() *api.ClusterHealth {
	ch := &api.ClusterHealth{Role: n.role, NodeID: n.id, Seq: n.Seq()}
	if n.pullSource != "" {
		n.lastErrMu.Lock()
		lastErr := n.lastErr
		n.lastErrMu.Unlock()
		rep := &api.ReplicationHealth{
			Source:    n.pullSource,
			Seq:       ch.Seq,
			SourceSeq: n.sourceSeq.Load(),
			Pulls:     n.pulls.Load(),
			Records:   n.records.Load(),
			Errors:    n.pullErrs.Load(),
			LastError: lastErr,
		}
		if rep.SourceSeq > rep.Seq {
			rep.Lag = rep.SourceSeq - rep.Seq
		}
		ch.Replication = rep
	}
	return ch
}
