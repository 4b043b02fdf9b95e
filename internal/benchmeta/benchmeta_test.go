package benchmeta

import "testing"

func TestCollectReadsHarnessEnv(t *testing.T) {
	t.Setenv("DPROF_GIT_COMMIT", "abc123")
	t.Setenv("DPROF_WRITTEN_AT", "2026-01-02T03:04:05Z")
	p := Collect()
	if p.GitCommit != "abc123" || p.WrittenAt != "2026-01-02T03:04:05Z" {
		t.Errorf("Collect() = %+v", p)
	}
	if p.GoMaxProcs <= 0 || p.HostCPUs <= 0 {
		t.Errorf("host fields not populated: %+v", p)
	}
}
