# CLI rejection table (ctest script).
#
# Every row is one command line that must be refused while its options
# are parsed: exit code 2, usage on stdout, and exactly the listed text on
# stderr ("" = the parser prints nothing before the usage).  No row gets
# as far as loading a spec, opening a socket or starting a worker, so the
# table runs in well under a second and never synthesizes.
#
# Expects: OASYS_CLI (path to the oasys binary).

set(failures 0)
set(rows 0)

# reject(<expected stderr> <argv...>)
function(reject expected)
  execute_process(
    COMMAND ${OASYS_CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  math(EXPR n "${rows} + 1")
  set(rows ${n} PARENT_SCOPE)
  if(NOT rc EQUAL 2 OR NOT err STREQUAL expected)
    list(JOIN ARGN " " argv)
    message(SEND_ERROR
            "oasys ${argv}\n"
            "  expected exit 2, stderr [${expected}]\n"
            "  got exit ${rc}, stderr [${err}]")
    math(EXPR f "${failures} + 1")
    set(failures ${f} PARENT_SCOPE)
  endif()
endfunction()

# ---- engine flags: every mode but stat takes them ---------------------------
foreach(mode main batch shard serve yield golden)
  set(m ${mode})
  if(mode STREQUAL "main")
    set(m "")
  endif()
  reject("" ${m} --tech)
  reject("" ${m} --jobs)
  reject("--jobs requires a positive integer, got '0'\n" ${m} --jobs 0)
  reject("--jobs requires a positive integer, got '4x'\n" ${m} --jobs 4x)
  reject("--jobs requires a positive integer, got '-2'\n" ${m} --jobs -2)
  reject("" ${m} --tran-mode)
  reject("--tran-mode must be 'fixed' or 'adaptive', got 'banana'\n"
         ${m} --tran-mode banana)
  reject("" ${m} --tran-rtol)
  reject("--tran-rtol requires a positive number, got '-1e-3'\n"
         ${m} --tran-rtol -1e-3)
  reject("" ${m} --tran-atol)
  reject("--tran-atol requires a positive number, got '0'\n"
         ${m} --tran-atol 0)
  # There is no device-eval flag: every mode refuses it as unknown.
  if(mode STREQUAL "main")
    set(unknown "unknown option '--device-eval'\n")
  else()
    set(unknown "unknown ${mode} option '--device-eval'\n")
  endif()
  reject("${unknown}" ${m} --device-eval)
  reject("${unknown}" ${m} --device-eval banana)
endforeach()

# ---- single-spec mode ---------------------------------------------------------
reject("")
reject("" --spec)
reject("" --export)
reject("" --metrics-json)
reject("unknown option '--bogus'\n" --bogus)
reject("unknown option 'stray'\n" stray)
reject("unknown option '--workers'\n" --workers 2)
reject("unknown option '--json'\n" --json)

# ---- batch and shard: shared flags --------------------------------------------
foreach(mode batch shard)
  reject("--cache-size requires a non-negative integer\n" ${mode} --cache-size)
  reject("--cache-size requires a non-negative integer\n"
         ${mode} x --cache-size -3)
  reject("" ${mode} --metrics-json)
  reject("" ${mode} --trace-json)
  reject("--yield-samples requires a positive integer\n"
         ${mode} --yield-samples)
  reject("--yield-samples requires a positive integer\n"
         ${mode} x --yield-samples 0)
  reject("--yield-seed requires a non-negative integer\n"
         ${mode} --yield-seed)
  reject("--yield-seed requires a non-negative integer\n"
         ${mode} x --yield-seed -1)
  reject("unknown ${mode} option '--bogus'\n" ${mode} x --bogus)
  reject("${mode} mode needs at least one spec file or directory\n" ${mode})
  reject("${mode} mode needs at least one spec file or directory\n"
         ${mode} --no-stats)
endforeach()

# ---- batch only ---------------------------------------------------------------
reject("" batch --connect)
reject("--sort must be 'name' or 'latency'\n" batch --sort)
reject("--sort must be 'name' or 'latency'\n" batch x --sort banana)
reject("unknown batch option '--workers'\n" batch --workers 2)
reject("unknown batch option '--worker-timeout'\n" batch x --worker-timeout 1)
reject("--sort latency is only available for a plain local batch (not --connect or --yield-samples)\n"
       batch x --sort latency --connect s)
reject("--sort latency is only available for a plain local batch (not --connect or --yield-samples)\n"
       batch x --sort latency --yield-samples 2)

# ---- shard only ---------------------------------------------------------------
reject("--workers requires a positive integer\n" shard --workers)
reject("--workers requires a positive integer\n" shard x --workers 0)
reject("--workers requires a positive integer\n" shard x --workers two)
reject("--workers requires a positive integer\n"
       shard x --workers 99999999999999999999)
reject("--worker-timeout requires a non-negative number of seconds\n"
       shard --worker-timeout)
reject("--worker-timeout requires a non-negative number of seconds\n"
       shard x --worker-timeout -1)
reject("--worker-timeout requires a non-negative number of seconds\n"
       shard x --worker-timeout nan)
# Over the worker cap.  No operand, so even a build without the cap
# stops at the operand check instead of starting workers.
reject("--workers must be at most 256\n" shard --workers 257)
reject("unknown shard option '--connect'\n" shard x --connect s)
reject("unknown shard option '--sort'\n" shard x --sort name)

# ---- serve --------------------------------------------------------------------
reject("" serve --socket)
reject("--workers requires a positive integer\n" serve --workers)
reject("--workers requires a positive integer\n" serve --workers 0)
reject("--workers requires a positive integer\n"
       serve --workers 99999999999999999999)
# Over the worker cap; without --socket, so nothing could start anyway.
reject("--workers must be at most 256\n" serve --workers 257)
reject("--worker-timeout requires a non-negative number of seconds\n"
       serve --worker-timeout)
reject("--worker-timeout requires a non-negative number of seconds\n"
       serve --worker-timeout -1)
reject("--shared-cache-size requires a non-negative integer\n"
       serve --shared-cache-size)
reject("--shared-cache-size requires a non-negative integer\n"
       serve --shared-cache-size -1)
reject("--slow-ms requires a non-negative number of milliseconds\n"
       serve --slow-ms)
reject("--slow-ms requires a non-negative number of milliseconds\n"
       serve --slow-ms -5)
reject("--cache-size requires a non-negative integer\n" serve --cache-size)
reject("--cache-size requires a non-negative integer\n" serve --cache-size x)
reject("unknown serve option 'specs'\n" serve specs)
reject("unknown serve option '--connect'\n" serve --connect s)
reject("unknown serve option '--metrics-json'\n" serve --metrics-json m)
reject("serve mode requires --socket PATH\n" serve)
reject("serve mode requires --socket PATH\n" serve --workers 2)

# ---- stat: no engine flags ----------------------------------------------------
reject("" stat --connect)
reject("unknown stat option 'x'\n" stat x)
reject("unknown stat option '--jobs'\n" stat --jobs 2)
reject("stat mode requires --connect SOCKET\n" stat)
reject("stat mode requires --connect SOCKET\n" stat --json)

# ---- yield --------------------------------------------------------------------
reject("--samples requires a positive integer\n" yield --samples)
reject("--samples requires a positive integer\n" yield x --samples 0)
reject("--seed requires a non-negative integer\n" yield --seed)
reject("--seed requires a non-negative integer\n" yield x --seed -1)
reject("" yield --metrics-json)
reject("unknown yield option '--bogus'\n" yield x --bogus)
reject("unknown yield option '--yield-samples'\n" yield x --yield-samples 2)
reject("yield mode needs exactly one spec file\n" yield)
reject("yield mode needs exactly one spec file\n" yield a b)

# ---- golden -------------------------------------------------------------------
reject("" golden --dir)
reject("--yield-samples requires a positive integer\n" golden --yield-samples)
reject("--yield-samples requires a positive integer\n"
       golden x --yield-samples 0)
reject("--yield-seed requires a non-negative integer\n" golden --yield-seed)
reject("--yield-seed requires a non-negative integer\n"
       golden x --yield-seed x)
reject("unknown golden option '--bogus'\n" golden x --bogus)
reject("unknown golden option '--samples'\n" golden x --samples 3)
reject("golden mode needs at least one spec file or directory\n" golden)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${rows} CLI rejection rows differ")
endif()
message(STATUS "all ${rows} CLI rejection rows match")
