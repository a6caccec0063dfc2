# Runs one command and requires an exact exit code and, optionally, a
# stderr pattern — for the flag-error paths, where "fails somehow" is not
# enough: a bad flag must exit 2 with a diagnostic, never crash or run.
#
# Expects: -DCOMMAND=<semicolon-separated command line>
#          -DEXPECT_CODE=<exit code>
#          [-DEXPECT_STDERR=<regex stderr must match>]

execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
if(NOT "${RC}" STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR
          "expected exit ${EXPECT_CODE}, got '${RC}'\nstdout:\n${OUT}\n"
          "stderr:\n${ERR}")
endif()
if(DEFINED EXPECT_STDERR AND NOT ERR MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
          "stderr does not match '${EXPECT_STDERR}':\n${ERR}")
endif()
