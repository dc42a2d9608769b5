# Runs BENCH with malformed counts on the command line and in the
# environment, and with the removed --shards flag; each must exit 2
# with a usage message before doing any work.
#
#   cmake -DBENCH=<binary> -P cli_rejects.cmake
unset(ENV{PINSIM_JOBS})
unset(ENV{PINSIM_REPS})

function(expect_usage_error label)
  execute_process(COMMAND ${BENCH} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${label}: no usage message on stderr\n${err}")
  endif()
endfunction()

expect_usage_error("--reps abc" --reps abc)
expect_usage_error("--shards 4 (removed flag)" --shards 4)
expect_usage_error("--jobs -1" --jobs -1)
expect_usage_error("--jobs 0" --jobs 0)
expect_usage_error("--reps without a value" --reps)
set(ENV{PINSIM_REPS} abc)
expect_usage_error("PINSIM_REPS=abc")
