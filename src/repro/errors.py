"""Exception hierarchy for the Capybara reproduction.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything from this package with a single handler
while still distinguishing configuration mistakes from simulation-time
faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SpecError(ConfigurationError):
    """A declarative scenario spec (:mod:`repro.spec`) failed validation:
    unknown fields, a bad schema version, an unserialisable component, or
    a reference to an unknown part, app, or system kind."""


class FaultSpecError(SpecError):
    """A declarative fault schedule (:mod:`repro.faults`) failed
    validation: an unknown fault kind, a malformed window, or a bad
    schema version."""


class TraceFormatError(SpecError):
    """A recorded environment trace (:mod:`repro.traces`) failed
    validation: bad magic or schema version, a chunk whose sha256 does
    not match its samples, a truncated or missing file, non-monotonic
    sample times, or a pinned ``trace_hash`` that does not match the
    file content.  Corruption is always surfaced as this typed error —
    the reader never yields garbage samples."""


class VecCapabilityError(SpecError):
    """A scenario uses features the vectorized backend (:mod:`repro.vec`)
    does not support — e.g. a time-varying harvester trace or a fault
    schedule.  Raised instead of silently falling back to the scalar
    engine; the message lists every unsupported feature."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class InjectedFault(ReproError):
    """Base class for deliberately injected failures (:mod:`repro.faults`).

    Raised *on purpose* by the fault-injection layer to exercise the
    resilience machinery; reaching a user unhandled means a retry or
    degradation path is missing, not that the simulation is wrong.
    """


class InjectedWorkerCrash(InjectedFault):
    """A campaign worker was deliberately crashed mid-job."""


class InjectedWorkerTimeout(InjectedFault):
    """A campaign worker was deliberately timed out mid-job."""


class ScheduleError(SimulationError):
    """An event was scheduled in the past or after the simulation horizon."""


class PowerSystemError(ReproError):
    """The power system was driven outside its electrical envelope."""


class BankConfigurationError(PowerSystemError):
    """A reservoir reconfiguration request referenced unknown or
    incompatible banks."""


class BrownoutError(PowerSystemError):
    """Energy was requested from a reservoir that cannot deliver it.

    Raised only by *strict* APIs; the intermittent executor treats
    brownout as a normal power-failure event rather than an error.
    """


class EnergyModeError(ReproError):
    """An energy mode was referenced before being registered, or its
    bank mapping is inconsistent with the reservoir."""


class TaskGraphError(ReproError):
    """An intermittent task graph is malformed (unknown transition,
    duplicate task name, missing entry task, ...)."""


class NonVolatileAccessError(ReproError):
    """Volatile state was accessed across a power failure boundary."""


class ProvisioningError(ReproError):
    """Task energy provisioning failed (task cannot complete even at the
    maximum allowed capacity, or the capacitor inventory is infeasible)."""


class WearLimitExceeded(PowerSystemError):
    """A component with limited write/cycle endurance exceeded its budget.

    Applies to the EEPROM digital potentiometer of the Vtop-threshold
    design alternative and to EDLC supercapacitor cycle budgets.
    """
