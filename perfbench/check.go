package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"atc/internal/cheetah"
)

// checkAddrs compares a decoded slice with the expected one; base is the
// trace position of want[0], for the message.
func checkAddrs(what string, want, got []uint64, base int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d addresses, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: address %d is %#x, want %#x", what, base+int64(i), got[i], want[i])
		}
	}
	return nil
}

// checkLossyShape checks what a lossy decode must preserve exactly: the
// trace length.
func checkLossyShape(raw, decoded []uint64) error {
	if len(decoded) != len(raw) {
		return fmt.Errorf("lossy decode: %d addresses, want the original %d", len(decoded), len(raw))
	}
	return nil
}

// wireBytes renders addresses in the /addrs wire format: 64-bit
// little-endian values.
func wireBytes(addrs []uint64) []byte {
	b := make([]byte, 8*len(addrs))
	for i, a := range addrs {
		binary.LittleEndian.PutUint64(b[8*i:], a)
	}
	return b
}

// checkBytes compares a served body with the reference bytes.
func checkBytes(what string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d bytes, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: byte %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
	return nil
}

// figure3Sets and figure3Assoc are the cache grid of the paper's Figure 3
// as scaled by internal/experiment: four set counts, associativity 1..32.
var figure3Sets = []int{512, 2048, 8192, 32768}

const figure3Assoc = 32

// missRatioError is the largest absolute difference between the LRU miss
// ratios of the original and the decoded trace over the Figure 3 grid.
func missRatioError(orig, decoded []uint64) (float64, error) {
	ge, err := cheetah.NewGrid(figure3Sets, figure3Assoc)
	if err != nil {
		return 0, err
	}
	gd, err := cheetah.NewGrid(figure3Sets, figure3Assoc)
	if err != nil {
		return 0, err
	}
	ge.AccessAll(orig)
	gd.AccessAll(decoded)
	worst := 0.0
	for i, s := range ge.Simulators() {
		de := s.MissRatios()
		dd := gd.Simulators()[i].MissRatios()
		for a := range de {
			worst = math.Max(worst, math.Abs(de[a]-dd[a]))
		}
	}
	return worst, nil
}
