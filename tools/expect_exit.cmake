# Runs a command and fails unless it exits with EXIT_CODE and its standard
# error matches STDERR_REGEX. COMMAND separates its arguments with '|':
#
#   cmake -DEXIT_CODE=1 "-DSTDERR_REGEX=..." "-DCOMMAND=prog|arg|..." \
#         -P expect_exit.cmake
string(REPLACE "|" ";" argv "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE code ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT code STREQUAL "${EXIT_CODE}")
  message(FATAL_ERROR "exit status ${code}, expected ${EXIT_CODE}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
