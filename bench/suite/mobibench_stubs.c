/* Peak resident set sizes, which OCaml's Unix library does not expose:
   wait4(2) reports a reaped child's, getrusage(2) this process's. */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>

/* Block until child [pid] ends; return (exit code, or 128 + signal for a
   killed child; peak RSS in KiB). */
value mobibench_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(res);
  pid_t pid = (pid_t)Long_val(v_pid);
  int status = 0;
  struct rusage ru;
  pid_t r;
  int err;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) {
    errno = err;
    caml_failwith("mobibench_wait4: wait4 failed");
  }
  int code = WIFEXITED(status)     ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                   : 255;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* This process's peak RSS in KiB. */
value mobibench_self_maxrss(value unit)
{
  (void)unit;
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
