// Package client is the typed Go client for the kbtable /v1 HTTP API.
// Every binary and the cluster router speak the API through it: requests
// and responses are the internal/api structs, non-2xx replies surface as
// *APIError carrying the envelope's stable machine code (a shed carries
// the server's Retry-After; the caller decides whether to back off and
// retry). The client pins the API version — it only ever calls /v1
// paths.
//
// Search decodes its reply without reflection (api.DecodeSearchResponse):
// the strings of one response — query, patterns, column names, cells —
// share one backing string, the reply body. Holding a single cell keeps
// the whole body alive; copy it (strings.Clone) to keep it alone.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kbtable/internal/api"
)

// APIError is a non-2xx reply decoded from the structured error
// envelope. Dispatch on Code (one of the api.Code* constants), not on
// Message text.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine code from the envelope ("" when the
	// body was not a valid envelope — e.g. a proxy error page).
	Code string
	// Message is human-readable detail (not stable).
	Message string
	// RetryAfter is the server-advised backoff (zero when none given).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("kbtable api: %s (%s, http %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("kbtable api: %s (http %d)", e.Message, e.Status)
}

// Code returns err's stable machine code ("" when err is not an
// *APIError).
func Code(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsShed reports that the server shed the request under overload; the
// caller should back off (see *APIError.RetryAfter) and retry.
func IsShed(err error) bool { return Code(err) == api.CodeShed }

// IsStaleEpoch reports a pinned-state mismatch (a cluster leg racing an
// update): retry against current state.
func IsStaleEpoch(err error) bool { return Code(err) == api.CodeStaleEpoch }

// Config tunes a Client beyond its base URL.
type Config struct {
	// HTTPClient overrides the transport (default: a dedicated client
	// with a 30s overall timeout; per-request contexts still apply).
	HTTPClient *http.Client
}

// Client speaks the /v1 API against one base URL. It is safe for
// concurrent use.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"; any trailing slash is trimmed).
func New(base string, cfg ...Config) *Client {
	c := &Client{base: strings.TrimRight(base, "/")}
	if len(cfg) > 0 {
		c.http = cfg[0].HTTPClient
	}
	if c.http == nil {
		c.http = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Base returns the base URL the client targets.
func (c *Client) Base() string { return c.base }

// Search runs POST /v1/search. The reply is decoded by the api
// package's search codec, not by reflection (see the package comment for
// what that means for the decoded strings).
func (c *Client) Search(ctx context.Context, req *api.SearchRequest) (*api.SearchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	raw, err := c.call(ctx, http.MethodPost, "/search", body)
	if err != nil {
		return nil, err
	}
	out, err := api.DecodeSearchResponse(raw)
	if err != nil {
		return nil, c.replyError("/search", err)
	}
	return out, nil
}

// Update runs POST /v1/update.
func (c *Client) Update(ctx context.Context, req *api.UpdateRequest) (*api.UpdateResponse, error) {
	var out api.UpdateResponse
	if err := c.post(ctx, "/update", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health runs GET /v1/healthz.
func (c *Client) Health(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	if err := c.get(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Shards runs GET /v1/shards.
func (c *Client) Shards(ctx context.Context) (*api.ShardsResponse, error) {
	var out api.ShardsResponse
	if err := c.get(ctx, "/shards", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WALSegments runs GET /v1/wal/segments?after=N[&max=M] (max <= 0 uses
// the server default). A 410 wal_gap *APIError means the cursor
// precedes retained history and the follower must reseed.
func (c *Client) WALSegments(ctx context.Context, after uint64, max int) (*api.WALSegmentsResponse, error) {
	path := "/wal/segments?after=" + strconv.FormatUint(after, 10)
	if max > 0 {
		path += "&max=" + strconv.Itoa(max)
	}
	var out api.WALSegmentsResponse
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ProbeShard runs POST /v1/cluster/probe — one shard's planner-probe
// leg on an owner node.
func (c *Client) ProbeShard(ctx context.Context, req *api.ClusterProbeRequest) (*api.ClusterProbeResponse, error) {
	var out api.ClusterProbeResponse
	if err := c.post(ctx, "/cluster/probe", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ScatterShard runs POST /v1/cluster/scatter — one shard's
// enumerate→aggregate leg on an owner node.
func (c *Client) ScatterShard(ctx context.Context, req *api.ClusterScatterRequest) (*api.ClusterScatterResponse, error) {
	var out api.ClusterScatterResponse
	if err := c.post(ctx, "/cluster/scatter", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the Prometheus text exposition from GET /v1/metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.call(ctx, http.MethodGet, "/metrics", nil)
	return string(raw), err
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// do performs one API call and decodes its reply into out (nil: the
// reply is not read); a non-2xx reply is an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	raw, err := c.call(ctx, method, path, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return c.replyError(path, err)
	}
	return nil
}

// call performs one API call and returns its 2xx reply body.
func (c *Client) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeError(resp, raw)
	}
	return raw, nil
}

func (c *Client) url(path string) string { return c.base + "/" + api.Version + path }

// replyError wraps a failure to decode a 2xx reply from path.
func (c *Client) replyError(path string, err error) error {
	return fmt.Errorf("kbtable api: decoding %s reply: %w", urlPath(c.url(path)), err)
}

// decodeError turns a non-2xx response into *APIError, preferring the
// structured envelope and falling back to raw body text (truncated) for
// replies that did not come from a kbtable server.
func decodeError(resp *http.Response, body []byte) error {
	ae := &APIError{Status: resp.StatusCode}
	var env api.ErrorResponse
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		if env.Error.RetryAfterMS > 0 {
			ae.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
		}
	} else {
		msg := strings.TrimSpace(string(body))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		ae.Message = msg
	}
	if ae.RetryAfter == 0 {
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return ae
}

func urlPath(u string) string {
	if p, err := url.Parse(u); err == nil {
		return p.Path
	}
	return u
}
