# End-to-end round trips through the cmvrp_cli serving front ends. CTest
# runs this as `cli_roundtrip`; by hand:
#   cmake -DCLI=build/tools/cmvrp_cli -DWORK=/tmp/rt -P tests/cli_roundtrip.cmake
# Every step must exit with the code it names; the first that does not
# fails the test with the command's output. A step's output is left in
# cli_out for the checks that read it.

function(cli expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE out)
  if(NOT rc STREQUAL "${expected}")
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR
            "cmvrp_cli ${shown}: exit ${rc}, expected ${expected}\n${out}")
  endif()
  set(cli_out "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Trace round trip: bounded-memory replay reports what the in-memory
# reference does on every deterministic field.
cli(0 trace gen --out ci.trace --generator hotspot --dim 3 --count 3000
      --cubes 4 --burst 32 --seed 9)
cli(0 trace info --file ci.trace)
cli(0 trace replay --file ci.trace --threads 2 --obs --json replay.json)
cli(0 trace replay --file ci.trace --threads 2 --obs --memory
      --json memory.json)
# A flag its subcommand does not declare is a usage error, not an effect
# silently dropped: misspelled, --memory would serve the bounded path.
cli(2 trace replay --file ci.trace --threads 2 --obs --memroy
      --json misspelled.json)
cli(0 compare replay.json memory.json)

# Record round trip: the outcome trail replays to the recorded run, and
# recording that replay writes the same bytes. cube_slots differs by
# design: the scenario declares its region, the replay sizes the slot
# table from the trail's demand.
cli(0 stream --scenario hotspot/s4c8/n4000/b64 --record o1.trace --threads 2
      --monitor-stride 16 --obs --json record.json)
cli(0 trace info --file o1.trace)
cli(0 trace replay --file o1.trace --record o2.trace --threads 2
      --monitor-stride 16 --obs --json audit.json)
cli(0 compare record.json audit.json --ignore cube_slots)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK}/o1.trace" "${WORK}/o2.trace"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "re-recorded outcome trail o2.trace differs from o1.trace")
endif()

# Mux order invariance: two traces merged into one engine report the
# same whichever is listed first.
cli(0 trace gen --out mux_a.trace --generator hotspot --count 2000 --seed 21)
cli(0 trace gen --out mux_b.trace --generator gradient --count 2000 --seed 22)
cli(0 trace mux mux_a.trace mux_b.trace --threads 2 --obs --json mux_ab.json)
cli(0 trace mux mux_b.trace mux_a.trace --threads 2 --obs --json mux_ba.json)
cli(0 compare mux_ab.json mux_ba.json)

# The artifact readers beside their writers (src/obs/): one flooding run
# (undersized W, so Phase I floods occur) writes its stats JSONL and its
# span trace as Chrome JSON, then once more as a spool; `stats` reads the
# JSONL back through read_stats and `prof` reads both span formats.
cli(0 stream --jobs 2000 --n 32 --capacity 8 --side 4 --obs
      --stats s.jsonl --trace-spans sp.json --json flood.json)
cli(0 stream --jobs 2000 --n 32 --capacity 8 --side 4 --obs
      --trace-spans sp.spool)
cli(0 stats --file s.jsonl)
cli(0 prof --file sp.json)
cli(0 prof --file sp.spool)
# A stats stream whose header lacks the keys `stats` reads is bad data
# (exit 1), rejected by read_stats naming the file, byte offset and key.
file(WRITE "${WORK}/keyless.jsonl"
     [=[{"kind":"header","schema":"cmvrp-stats-v1"}
{"kind":"final","jobs":1}
]=])
cli(1 stats --file keyless.jsonl)
if(NOT cli_out MATCHES "keyless.jsonl at byte 0 .*header line has no \"dim\" key")
  message(FATAL_ERROR "stats keyless.jsonl: the error does not name the "
                      "file, byte offset and missing key\n${cli_out}")
endif()

# Retired front ends are usage errors that name their replacement, not
# silent fallbacks to another job source.
cli(2 record --scenario hotspot/s4c8/n4000/b64 --out retired.trace)
cli(2 stream --trace ci.trace)

# A positional token a command does not take is a usage error: `stream
# stray.txt` (a forgotten --file) would otherwise serve the synthetic
# stream, and `fig41 --r1 2 extra` would drop `extra` unread.
cli(2 stream stray.txt)
cli(2 fig41 --r1 2 extra)
# A switch never takes a value, so the token after --obs stays a stray
# positional; any other flag needs one.
cli(2 stream --obs w.txt --jobs 50 --n 8)
cli(2 compare mux_ab.json mux_ba.json --json)
# A flag value the engine would refuse is a usage error at parse time,
# not an engine check failure once serving has begun.
cli(2 stream --n 8 --jobs 50 --batch 0)
cli(2 stream --n 8 --jobs 50 --monitor-stride 0)
# 2^32 + 1 threads would narrow to one worker.
cli(2 stream --n 8 --jobs 50 --threads 4294967297)
cli(2 stream --n 8 --jobs 50 --capacity -1)
cli(2 stream --n 8 --jobs 50 --side 0)
cli(2 stream --n 0 --jobs 50)
cli(2 stream --n 8 --jobs 0)
# So it is on the commands that do not serve: each value below would
# otherwise fail a library check (exit 1) that names a source line.
file(WRITE "${WORK}/d.txt" "0 0 3\n2 1 5\n")
cli(2 gen --n 0)
cli(2 gen --count -5)
cli(2 gen --workload line --n 4 --d -3)
cli(2 gen --workload square --n 1)
cli(2 fig41 --r1 0)
cli(2 fig41 --r1 3 --r2 1)
# Theorem 4.1.1's bound on Fig. 4.1 is exactly 2·r1.
cli(0 fig41 --r1 3)
if(NOT cli_out MATCHES "\\| LP bound \\(Thm 4\\.1\\.1\\) +\\| 6\\.0000 +\\|")
  message(FATAL_ERROR "fig41 --r1 3: the LP bound row does not read 6.0000\n"
                      "${cli_out}")
endif()
cli(2 won --file d.txt --tol 0)
cli(2 online --file d.txt --capacity -1)
cli(2 bench --suite smoke --reps 0)
cli(2 bench --suite smoke --warmup -1)
cli(2 bounds --file d.txt --dim 0)
cli(2 bounds --file d.txt --dim 7)
cli(0 bounds --file d.txt)

# Help is printed from the command table, so every declared flag shows
# on its command's line.
cli(0 help)
if(NOT cli_out MATCHES "\n  won +[^\n]*--seed" OR
   NOT cli_out MATCHES "\n  bounds +[^\n]*--dim")
  message(FATAL_ERROR "help does not list won's --seed and bounds' --dim "
                      "on their lines\n${cli_out}")
endif()
