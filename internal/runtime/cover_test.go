package runtime

import (
	"context"
	"testing"
)

// A ticket surfaces the admission metadata the job was submitted with.
func TestTicketMeta(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueBound: 1})
	defer s.Close()
	meta := JobMeta{Tenant: "acme", Priority: PriorityHigh}
	tk, err := s.Submit(Job{
		Name: "meta",
		Meta: meta,
		Run:  func(context.Context) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tk.Meta(); got != meta {
		t.Fatalf("Meta() = %+v, want %+v", got, meta)
	}
	tk.Wait()
}
