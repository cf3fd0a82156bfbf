package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

const ammTenantCfg = `{"framework":"lm-amm","window":"sequence","size":64,"d":5,"d_b":2,"ell":8,"b":4}`

// ammIngestBody builds an ingest payload of n stacked rows [a|b] of
// total width 5 with correlated sides, timestamps 1..n.
func ammIngestBody(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		z := float64(i%7) - 3
		fmt.Fprintf(&sb, `{"row":[%g,%g,%g,%g,%g],"t":%d}`,
			z, z*0.5, 1.0, z*0.25, z, i+1)
	}
	sb.WriteString("]}")
	return sb.String()
}

func TestTenantAMMQuery(t *testing.T) {
	ts, _ := newTenantServer(t)
	resp := doReq(t, "PUT", ts.URL+"/v2/tenants/pair", ammTenantCfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	resp = doReq(t, "POST", ts.URL+"/v2/tenants/pair/rows", ammIngestBody(40))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	var got ammResponse
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/pair/amm", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("amm status %d", resp.StatusCode)
	}
	decode(t, resp, &got)
	if got.DA != 3 || got.DB != 2 {
		t.Fatalf("dims %d×%d, want 3×2", got.DA, got.DB)
	}
	if len(got.Product) != 3 || len(got.Product[0]) != 2 {
		t.Fatalf("product shape %d×%d", len(got.Product), len(got.Product[0]))
	}
	if got.T != 40 {
		t.Fatalf("default t = %v, want the ingest clock 40", got.T)
	}

	// POST with a JSON-body timestamp answers identically to GET ?t=.
	var viaGet, viaPost ammResponse
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/pair/amm?t=45", "")
	decode(t, resp, &viaGet)
	resp = doReq(t, "POST", ts.URL+"/v2/tenants/pair/amm", `{"t":45}`)
	decode(t, resp, &viaPost)
	if viaGet.T != 45 || viaPost.T != 45 {
		t.Fatalf("t = %v / %v, want 45", viaGet.T, viaPost.T)
	}
	for i := range viaGet.Product {
		for j := range viaGet.Product[i] {
			if viaGet.Product[i][j] != viaPost.Product[i][j] {
				t.Fatalf("GET and POST products differ at (%d,%d)", i, j)
			}
		}
	}

	// An empty POST body means "query now", like omitting ?t=.
	resp = doReq(t, "POST", ts.URL+"/v2/tenants/pair/amm", "")
	decode(t, resp, &viaPost)
	if viaPost.T != 40 {
		t.Fatalf("empty-body POST t = %v, want 40", viaPost.T)
	}

	// A timestamp behind the ingest clock is rejected.
	resp = doReq(t, "POST", ts.URL+"/v2/tenants/pair/amm", `{"t":5}`)
	if resp.StatusCode != http.StatusBadRequest || decodeError(t, resp).Code != CodeInvalidArgument {
		t.Fatalf("stale t: status %d", resp.StatusCode)
	}
	resp = doReq(t, "POST", ts.URL+"/v2/tenants/pair/amm", `{"t":`)
	if resp.StatusCode != http.StatusBadRequest || decodeError(t, resp).Code != CodeInvalidJSON {
		t.Fatalf("bad json: status %d", resp.StatusCode)
	}
	resp = doReq(t, "POST", ts.URL+"/v2/tenants/pair/amm", `{"t":1,"bogus":7}`)
	if resp.StatusCode != http.StatusBadRequest || decodeError(t, resp).Code != CodeInvalidJSON {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
}

func TestTenantAMMUnsupported(t *testing.T) {
	ts, _ := newTenantServer(t)
	// The default tenant is LM-FD — covariance-only, no paired plane.
	resp := doReq(t, "GET", ts.URL+"/v2/tenants/default/amm", "")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	eb := decodeError(t, resp)
	if eb.Code != CodeUnsupported || !strings.Contains(eb.Message, "lm-amm") {
		t.Fatalf("error %+v", eb)
	}
	resp = doReq(t, "GET", ts.URL+"/v2/tenants/ghost/amm", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status %d", resp.StatusCode)
	}
	resp = doReq(t, "DELETE", ts.URL+"/v2/tenants/default/amm", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d, want 405", resp.StatusCode)
	}
}
