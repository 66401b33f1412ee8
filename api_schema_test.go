package kbtable_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kbtable/internal/api"
)

var updateAPIGolden = flag.Bool("update-api", false, "rewrite the v1 API schema golden")

// renderAPISchema flattens the versioned wire contract — error codes,
// endpoints, and every wire struct with its JSON tags — into a stable
// text form. Any field rename, tag change, or type change shows up as a
// diff against testdata/api/v1.golden, which is the tripwire for
// accidental wire-format breaks: the schema may only change alongside a
// deliberate golden update.
func renderAPISchema() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kbtable wire API schema (version %s)\n", api.Version)

	sb.WriteString("\nerror codes:\n")
	codes := []string{
		api.CodeBadRequest, api.CodeShed, api.CodeStaleEpoch,
		api.CodeDurability, api.CodeMethodNotAllowed,
		api.CodeNotFound, api.CodeCanceled, api.CodeTimeout,
		api.CodeReadOnly, api.CodeNotImplemented, api.CodeWALGap,
		api.CodeInternal,
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&sb, "  %s\n", c)
	}

	sb.WriteString("\nendpoints (served under /v1 only; any other path answers 404 not_found):\n")
	for _, ep := range []string{
		"POST /v1/search",
		"POST /v1/update",
		"GET  /v1/healthz",
		"GET  /v1/metrics",
		"GET  /v1/shards",
		"GET  /v1/wal/segments?after=<seq>&max=<n>",
		"POST /v1/cluster/probe   (cluster nodes only)",
		"POST /v1/cluster/scatter (cluster nodes only)",
	} {
		fmt.Fprintf(&sb, "  %s\n", ep)
	}

	types := []any{
		api.ErrorBody{}, api.ErrorResponse{},
		api.SearchRequest{}, api.SearchAnswer{}, api.SearchResponse{},
		api.PlanOut{},
		api.UpdateRequest{}, api.UpdateResponse{},
		api.CacheStats{}, api.ShardHealth{}, api.IndexHealth{},
		api.PlannerHealth{}, api.PlanCacheHealth{},
		api.DurabilityHealth{}, api.ServingHealth{},
		api.HealthResponse{},
		api.ShardsResponse{}, api.WALSegmentsResponse{},
		api.ClusterProbeRequest{}, api.ClusterProbeResponse{},
		api.ClusterScatterRequest{}, api.ClusterScatterResponse{},
		api.ClusterHealth{}, api.ClusterNodeHealth{}, api.ReplicationHealth{},
	}
	for _, v := range types {
		rt := reflect.TypeOf(v)
		fmt.Fprintf(&sb, "\n%s:\n", rt.Name())
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if !f.IsExported() {
				continue
			}
			tag := f.Tag.Get("json")
			if tag == "" {
				tag = "-"
			}
			fmt.Fprintf(&sb, "  %-18s %-28s json:%q\n", f.Name, f.Type.String(), tag)
		}
	}
	return sb.String()
}

// TestAPISchemaGolden pins the /v1 wire contract byte-for-byte.
func TestAPISchemaGolden(t *testing.T) {
	got := renderAPISchema()
	path := filepath.Join("testdata", "api", "v1.golden")
	if *updateAPIGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestAPISchemaGolden -update-api` after a deliberate wire change)", err)
	}
	if got != string(want) {
		t.Fatalf("wire API schema drifted from %s — if the change is deliberate, rerun with -update-api and call it out in the changelog.\ngot:\n%s", path, got)
	}
}
