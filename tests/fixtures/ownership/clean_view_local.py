# module: repro.click.router
# expect: none
# A view over a function-local buffer that is never mutated nor stored
# is the zero-copy pattern HP705 must leave alone.


class Router:
    def process(self, ip_packet):
        view = memoryview(ip_packet)
        return view.nbytes
