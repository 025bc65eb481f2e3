# module: repro.netsim.fixture_classattr
# expect: SS604
"""Seeded ownership leak: instance method mutates a class attribute."""


class FlowTracker:
    #: shared by every instance — and therefore by every simulator
    observed = []

    def note_packet(self, packet):
        self.observed.append(packet)


def install(sim):
    tracker = FlowTracker()
    sim.schedule(0.0, tracker.note_packet)
