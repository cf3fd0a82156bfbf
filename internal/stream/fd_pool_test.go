package stream

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestFDSnapshotHash logs the snapshot hash of a classic FD large
// enough (ℓ = d = 256, 775 N(0,1) rows of seed 1) that its products fan
// out over the mat worker pool. TestFDBitsIndependentOfPoolSize runs it
// in child processes.
func TestFDSnapshotHash(t *testing.T) {
	fd := NewFD(256, 256)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 775; i++ {
		fd.Update(randRow(rng, 256))
	}
	b, err := fd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fd snapshot sha256 %x", sha256.Sum256(b))
}

// TestFDBitsIndependentOfPoolSize checks that the snapshot bytes do not
// depend on how many workers the mat pool has. The pool is sized once,
// at first use, so each size runs TestFDSnapshotHash in a child process
// with GOMAXPROCS set.
func TestFDBitsIndependentOfPoolSize(t *testing.T) {
	hashOf := regexp.MustCompile(`fd snapshot sha256 ([0-9a-f]{64})`)
	procsOf := map[string][]int{}
	for _, procs := range []int{1, 2, 4, 8} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFDSnapshotHash$", "-test.v")
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		out, err := cmd.CombinedOutput()
		m := hashOf.FindSubmatch(out)
		if err != nil || m == nil {
			t.Fatalf("GOMAXPROCS=%d: %v\n%s", procs, err, out)
		}
		procsOf[string(m[1])] = append(procsOf[string(m[1])], procs)
	}
	if len(procsOf) != 1 {
		t.Fatalf("FD snapshot bytes depend on GOMAXPROCS: hash → GOMAXPROCS %v", procsOf)
	}
}
