# Runs --help on every tool and bench binary, extracts the flag names each
# one documents, and compares the inventory against the committed list
# (tools/cli_flags.txt), so adding, renaming or dropping a flag is always a
# deliberate diff of that file.
#
# Expects: -DBINARIES=<semicolon-separated name=path pairs>
#          -DEXPECTED=<committed inventory file>
#          -DACTUAL=<where to write the inventory found>
#
# Refresh the list after an intended flag change with
#   cp <ACTUAL> tools/cli_flags.txt

set(INVENTORY "")
list(SORT BINARIES)
foreach(PAIR ${BINARIES})
  string(REPLACE "=" ";" PARTS "${PAIR}")
  list(GET PARTS 0 NAME)
  list(GET PARTS 1 BINARY)
  execute_process(COMMAND ${BINARY} --help
                  OUTPUT_VARIABLE HELP RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${NAME} --help exited with ${RC}")
  endif()
  # Option lines are "  --name [<value>]  help"; wrapped help text never
  # starts a line with two spaces and a dash pair.
  string(REGEX MATCHALL "\n  --[a-z0-9-]+" FLAGS "\n${HELP}")
  list(TRANSFORM FLAGS REPLACE "\n  " "")
  list(SORT FLAGS)
  list(JOIN FLAGS " " LINE)
  string(APPEND INVENTORY "${NAME}: ${LINE}\n")
endforeach()

file(WRITE ${ACTUAL} "${INVENTORY}")
file(STRINGS ${EXPECTED} EXPECTED_LINES REGEX "^[^#]")
list(JOIN EXPECTED_LINES "\n" EXPECTED_TEXT)
if(NOT "${INVENTORY}" STREQUAL "${EXPECTED_TEXT}\n")
  message(FATAL_ERROR
          "flag inventory differs from ${EXPECTED}; diff it against "
          "${ACTUAL} and commit the new list if the change is intended")
endif()
