package faas

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/providers"
)

// egressIPReference is EgressIP as first written, with fmt and hash/fnv. It
// stays as the differential oracle for the allocation-free version.
func egressIPReference(id providers.ID, region string, instance int64) string {
	slot := uint32(instance) % EgressPoolSize
	h := fnv.New32a()
	fmt.Fprintf(h, "egress|%d|%s|%d", int(id), region, slot)
	v := h.Sum32()
	return fmt.Sprintf("%d.%d.%d.%d", 100+int(id), byte(64+v%64), byte(v>>8), byte(v))
}

func TestEgressIPMatchesReference(t *testing.T) {
	// The long region does not fit EgressIP's stack buffer.
	regions := []string{"", "ap-guangzhou", strings.Repeat("eu-central-", 12)}
	for id := providers.ID(0); int(id) < providers.NumProviders; id++ {
		for _, region := range regions {
			for inst := int64(-3); inst <= 600; inst++ {
				got, want := EgressIP(id, region, inst), egressIPReference(id, region, inst)
				if got != want {
					t.Fatalf("EgressIP(%v, %q, %d) = %q, reference %q", id, region, inst, got, want)
				}
			}
		}
	}
}

func TestEgressIPAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { EgressIP(providers.AWS, "us-east-1", 7) }); n != 1 {
		t.Errorf("EgressIP allocates %v times per call, want 1 (the result)", n)
	}
}
