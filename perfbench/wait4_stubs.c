/* wait4(2) with the child's peak RSS, which OCaml's Unix does not expose. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* (exit code, ru_maxrss in KiB); a signal-killed child reports 128 + signo. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status;
  struct rusage ru;
  pid_t r;
  do {
    caml_enter_blocking_section();
    r = wait4(Int_val(vpid), &status, 0, &ru);
    caml_leave_blocking_section();
  } while (r < 0 && errno == EINTR);
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
