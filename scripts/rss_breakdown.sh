#!/bin/sh
# rss_breakdown.sh — where each process's resident memory goes, read from
# /proc/<pid>/smaps (it reads /proc only, and changes nothing):
#
#   binary  mappings of the program's own executable (/proc/<pid>/exe)
#   libs    shared libraries (*.so*: libc and ld when the binary is
#           cgo-linked through package net)
#   mapped  every other mapped file: an index file or segment, tier
#           sidecars, a WAL
#   anon    anonymous memory: the Go heap, goroutine stacks, the
#           runtime's own metadata (unnamed mappings, [heap], [stack]),
#           and the kernel's few [vdso] / [vvar] pages
#   total   the sum, which is the process's Rss
#
# Usage:
#
#   scripts/rss_breakdown.sh PID...
#
# One line per PID, in MB (kB / 1024, the unit of the benchmark's
# rss_peak_mb). The current resident set, not the peak: VmHWM in
# /proc/<pid>/status is the peak. Reading another user's smaps needs the
# same rights as ptrace.
#
# Exit status: 0, 1 when a PID's smaps could not be read, 2 on usage.
set -eu

[ $# -gt 0 ] || { echo "usage: $0 PID..." >&2; exit 2; }

printf '%-8s %-12s %8s %8s %8s %8s %8s\n' pid comm binary libs mapped anon total
status=0
for pid in "$@"; do
	exe=$(readlink "/proc/$pid/exe" 2>/dev/null || true)
	comm=$(cat "/proc/$pid/comm" 2>/dev/null || true)
	if ! smaps=$(cat "/proc/$pid/smaps" 2>/dev/null) || [ -z "$smaps" ]; then
		echo "rss_breakdown: cannot read /proc/$pid/smaps" >&2
		status=1
		continue
	fi
	printf '%s\n' "$smaps" | awk -v pid="$pid" -v comm="$comm" -v exe="$exe" '
		# A mapping header: address range, perms, offset, device, inode,
		# then the path (absent for anonymous memory; it may hold spaces).
		$1 ~ /^[0-9a-f]+-[0-9a-f]+$/ {
			path = ""
			if (NF >= 6) { path = $0; sub(/^[^ ]+ +[^ ]+ +[^ ]+ +[^ ]+ +[^ ]+ +/, "", path) }
			file = path; sub(/ \(deleted\)$/, "", file)
			if (path == "" || path ~ /^\[/) class = "anon"
			else if (file == exe) class = "binary"
			else if (file ~ /\.so(\.[0-9]+)*$/) class = "libs"
			else class = "mapped"
			next
		}
		$1 == "Rss:" { kb[class] += $2; total += $2 }
		END {
			printf "%-8s %-12s %8.2f %8.2f %8.2f %8.2f %8.2f\n", pid, comm,
				kb["binary"] / 1024, kb["libs"] / 1024, kb["mapped"] / 1024,
				kb["anon"] / 1024, total / 1024
		}'
done
exit $status
