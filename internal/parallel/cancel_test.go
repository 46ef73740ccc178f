package parallel

import "testing"

func TestCancelerNilSafe(t *testing.T) {
	var c *Canceler
	c.Cancel() // must not panic
	if c.Canceled() {
		t.Fatal("nil canceler reports canceled")
	}
	var live Canceler
	if live.Canceled() {
		t.Fatal("zero canceler reports canceled")
	}
	live.Cancel()
	live.Cancel() // idempotent
	if !live.Canceled() {
		t.Fatal("canceled token reports live")
	}
}
