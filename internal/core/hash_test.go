package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// TestSpecHashMatchesFormula pins CircuitSpec.Hash to the digest it has
// always had, sha256 of fmt.Sprintf("%d\x00%s", NQubits, QASM) cut to 16
// bytes, so the serving layer's cache keys and the fault injector's keys
// stay what they were.
func TestSpecHashMatchesFormula(t *testing.T) {
	formula := func(s CircuitSpec) string {
		h := sha256.Sum256([]byte(fmt.Sprintf("%d\x00%s", s.NQubits, s.QASM)))
		return hex.EncodeToString(h[:16])
	}
	bell := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"
	specs := []CircuitSpec{
		{},
		{NQubits: 1},
		{NQubits: 128},
		{NQubits: 0, QASM: bell},
		{NQubits: 1, QASM: bell},
		{NQubits: 128, QASM: bell},
		{NQubits: 2, QASM: "\x00"},
		{NQubits: 2, QASM: "a\x00b\x00\x00"},
		{NQubits: -3, QASM: bell},
		{NQubits: 2, QASM: bell, Name: "named", Params: []string{"ignored"}},
		{NQubits: 20, QASM: strings.Repeat("rz(0.5) q[3];\n", (1<<20)/14+1)},
	}
	for _, s := range specs {
		if got, want := s.Hash(), formula(s); got != want {
			t.Errorf("Hash(n=%d, %d-byte QASM) = %s, want %s", s.NQubits, len(s.QASM), got, want)
		}
	}
	if specs[0].Hash() == specs[1].Hash() || specs[6].Hash() == specs[7].Hash() {
		t.Fatal("distinct specs share a digest")
	}
}
