package main

import "testing"

func TestStrayCampaignFlag(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want string
	}{
		{nil, ""},
		{[]string{"campaign"}, ""},
		{[]string{"campaign", "checkpoint", "cpuprofile", "memprofile", "workers"}, ""},
		{[]string{"campaign", "seed"}, "seed"},
		// flag.Visit reports in name order, so the first stray is the one named.
		{[]string{"campaign", "metrics", "proto", "workers"}, "metrics"},
		{[]string{"campaign", "list-models"}, "list-models"},
		{[]string{"campaign", "mobility"}, "mobility"},
	} {
		if got := strayCampaignFlag(tc.set); got != tc.want {
			t.Errorf("strayCampaignFlag(%v) = %q, want %q", tc.set, got, tc.want)
		}
	}
}
