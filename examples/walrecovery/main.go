// WAL crash recovery: the serving layer journals every mutation —
// tenant creation, row blocks (batch or streamed), snapshot restores,
// deletions — into a per-shard write-ahead log before applying it.
// After a crash, a cold server replays the log and reconstructs every
// tenant bit-identically: the deterministic LM-FD marshals to the
// same bytes the live server held.
//
// The demo drives real HTTP traffic (a batch, a created tenant, a
// streaming block), "crashes" by dropping the server without any
// graceful shutdown, then recovers twice from the same directory.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"swsketch/internal/registry"
	"swsketch/internal/serve"
	"swsketch/internal/wal"
)

const d = 3

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// boot opens (or reopens) the log in dir, replays it into a fresh
// server, and returns both plus the replay stats.
func boot(dir string) (*httptest.Server, *wal.Log, wal.Stats) {
	// Sync interval 0 = fsync every append: nothing a client saw
	// acknowledged can be lost, which is what makes the crash below
	// safe to take mid-flight.
	l, err := wal.Open(dir, wal.WithShards(2), wal.WithSyncInterval(0))
	if err != nil {
		fail(err)
	}
	srv, err := serve.NewServer(registry.Config{Framework: registry.FrameworkLMFD, Size: 64, D: d, Ell: 6, B: 3}, serve.WithWAL(l))
	if err != nil {
		fail(err)
	}
	st, err := srv.RecoverWAL()
	if err != nil {
		fail(err)
	}
	return httptest.NewServer(srv.Handler()), l, st
}

func post(url, contentType, body string) {
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		fail(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		fail(fmt.Errorf("POST %s: status %d", url, resp.StatusCode))
	}
}

func snapshot(url string) []byte {
	resp, err := http.Get(url + "/v2/tenants/default/snapshot")
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	return data
}

func main() {
	dir, err := os.MkdirTemp("", "swsketch-walrecovery")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)

	ts, _, _ := boot(dir)

	// Mixed traffic, every ingest path: a batch, a created tenant, and
	// a streamed block.
	post(ts.URL+"/v2/tenants/default/rows", "application/json",
		`{"updates":[{"row":[1,0,0],"t":1},{"row":[0,2,0],"t":2},{"idx":[2],"val":[3],"t":3}]}`)
	req, _ := http.NewRequest("PUT", ts.URL+"/v2/tenants/turbine",
		strings.NewReader(`{"framework":"lm-fd","window":"sequence","size":32,"d":3,"ell":6,"b":3}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fail(err)
	}
	resp.Body.Close()
	var stream strings.Builder
	for i := 4; i < 20; i++ {
		fmt.Fprintf(&stream, `{"row":[%d,1,0],"t":%d}`+"\n", i%3, i)
	}
	post(ts.URL+"/v2/tenants/default/stream", "application/x-ndjson", stream.String())
	post(ts.URL+"/v2/tenants/turbine/rows", `application/json`,
		`{"updates":[{"row":[5,0,0],"t":1}]}`)

	before := snapshot(ts.URL)
	fmt.Printf("ingested 20 rows, live snapshot %d bytes\n", len(before))

	// Crash: drop the server on the floor. No snapshot, no flush, no
	// goodbye — the fsynced log is the only survivor.
	ts.Close()

	ts2, _, st := boot(dir)
	fmt.Printf("replayed %d records (%d rows) from %d segments: damaged=%v\n",
		st.Records, st.Rows, st.Segments, st.Damaged)
	after := snapshot(ts2.URL)
	fmt.Printf("recovered snapshot bit-identical: %v\n", bytes.Equal(before, after))

	// The recovered node is a full citizen: it keeps ingesting and
	// journaling, and a second crash-recovery cycle still agrees.
	post(ts2.URL+"/v2/tenants/default/rows", "application/json",
		`{"updates":[{"row":[1,1,1],"t":30}]}`)
	want := snapshot(ts2.URL)
	ts2.Close()
	ts3, _, _ := boot(dir)
	fmt.Printf("second recovery bit-identical: %v\n", bytes.Equal(want, snapshot(ts3.URL)))
	ts3.Close()
}
