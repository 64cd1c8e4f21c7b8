/* TCP_QUICKACK for the load generator's sockets.  Linux clears the
   flag as it goes, so the caller sets it again after every read.  A
   no-op where the option does not exist. */

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#if defined(__linux__)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#endif

value e2e_quickack(value fd)
{
#if defined(__linux__) && defined(TCP_QUICKACK)
  int one = 1;
  (void)setsockopt(Int_val(fd), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#endif
  return Val_unit;
}
