# Runs a bench binary twice with --trace — once at --jobs 1, once at
# --jobs 4 — and demands four byte-identities:
#
#   1. both stdouts match the (untraced) golden: --trace never changes
#      simulated results or bench output,
#   2. every .trace.json / .series.csv file from run A matches its
#      counterpart from run B: concurrent simulations in one process share
#      no trace state,
#   3. at least one trace file pair exists (the flag actually traced),
#   4. the files written are exactly those named in the committed SHA-256
#      list, with those contents: a change that alters every run's events
#      the same way still fails.
#
# The list is `sha256sum t.*` output ("<hex>  <file>" per line) taken in
# the --jobs 1 directory. Regenerate it only for a change that means to
# alter trace content, and say so in the change.
#
# Usage (via add_test in tests/CMakeLists.txt):
#   cmake -DBENCH=<path> -DARGS="--apps;wupwise,swim"
#         -DGOLDEN=<path> -DSHA256_LIST=<path> -DWORK_DIR=<scratch dir>
#         -P compare_trace.cmake

if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED WORK_DIR
   OR NOT DEFINED SHA256_LIST)
  message(FATAL_ERROR
    "compare_trace.cmake needs -DBENCH=..., -DGOLDEN=..., -DSHA256_LIST=..., "
    "-DWORK_DIR=...")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/jobs1" "${WORK_DIR}/jobs4")

file(READ ${GOLDEN} EXPECTED)
foreach(Jobs 1 4)
  set(Name "jobs${Jobs}")
  execute_process(
    COMMAND ${BENCH} ${ARGS} --jobs ${Jobs} --trace
            --trace-out "${WORK_DIR}/${Name}/t"
    OUTPUT_VARIABLE ACTUAL
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${BENCH} (${Name}) exited with ${RC}")
  endif()
  if(NOT ACTUAL STREQUAL EXPECTED)
    file(WRITE "${WORK_DIR}/${Name}.stdout.actual" "${ACTUAL}")
    message(FATAL_ERROR
      "traced ${Name} stdout differs from ${GOLDEN} — tracing perturbed the "
      "bench output (actual in ${WORK_DIR}/${Name}.stdout.actual)")
  endif()
endforeach()

file(GLOB Jobs1Files RELATIVE "${WORK_DIR}/jobs1" "${WORK_DIR}/jobs1/t.*")
list(LENGTH Jobs1Files NumFiles)
if(NumFiles EQUAL 0)
  message(FATAL_ERROR "--trace produced no trace files under ${WORK_DIR}")
endif()

foreach(File ${Jobs1Files})
  if(NOT EXISTS "${WORK_DIR}/jobs4/${File}")
    message(FATAL_ERROR "run at --jobs 4 did not write ${File}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/jobs1/${File}" "${WORK_DIR}/jobs4/${File}"
    RESULT_VARIABLE Cmp)
  if(NOT Cmp EQUAL 0)
    message(FATAL_ERROR
      "${File} differs between --jobs 1 and 4 — concurrent simulations "
      "perturbed each other's trace (kept under ${WORK_DIR})")
  endif()
endforeach()

file(STRINGS "${SHA256_LIST}" Pinned)
set(PinnedFiles "")
foreach(Line ${Pinned})
  if(NOT Line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed line in ${SHA256_LIST}: ${Line}")
  endif()
  set(Want "${CMAKE_MATCH_1}")
  set(File "${CMAKE_MATCH_2}")
  list(APPEND PinnedFiles "${File}")
  if(NOT EXISTS "${WORK_DIR}/jobs1/${File}")
    message(FATAL_ERROR
      "--trace did not write ${File}, pinned in ${SHA256_LIST}")
  endif()
  file(SHA256 "${WORK_DIR}/jobs1/${File}" Got)
  if(NOT Got STREQUAL Want)
    message(FATAL_ERROR
      "${File} content changed: sha256 ${Got}, pinned ${Want} in "
      "${SHA256_LIST} (kept under ${WORK_DIR}/jobs1)")
  endif()
endforeach()
foreach(File ${Jobs1Files})
  list(FIND PinnedFiles "${File}" Index)
  if(Index EQUAL -1)
    message(FATAL_ERROR
      "${File} was written but is not pinned in ${SHA256_LIST}")
  endif()
endforeach()
